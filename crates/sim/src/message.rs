//! Dynamically-typed messages exchanged between actors.

use std::any::Any;
use std::fmt;

/// A value [`Message::cloneable`] can deep-copy when its simulation forks
/// ([`Simulation::fork`](crate::Simulation::fork)).
///
/// Every `Clone` type qualifies. A container of type-erased messages (a
/// network frame, say) implements it by copying its contents, and fails
/// with the type name of the first content that cannot be copied.
pub trait TryClone: Sized + 'static {
    /// A deep copy of `self`, or the type name of the part that cannot be
    /// copied.
    ///
    /// # Errors
    ///
    /// Returns the `std::any::type_name` of a contained message that was
    /// not built with [`Message::cloneable`].
    fn try_clone(&self) -> Result<Self, &'static str>;
}

impl<T: Clone + 'static> TryClone for T {
    fn try_clone(&self) -> Result<Self, &'static str> {
        Ok(self.clone())
    }
}

/// Copies a type-erased payload known to be a `T`.
type CloneFn = fn(&dyn Any) -> Result<Box<dyn Any>, &'static str>;

fn clone_payload<T: TryClone>(payload: &dyn Any) -> Result<Box<dyn Any>, &'static str> {
    let value = payload.downcast_ref::<T>().expect("payload matches its clone function");
    Ok(Box::new(value.try_clone()?))
}

/// A type-erased message delivered to an [`Actor`](crate::Actor).
///
/// Each crate defines its own concrete message types (network frames, DRAM
/// completions, timer ticks, ...) and wraps them in a `Message` to cross the
/// actor boundary; the receiver downcasts back to the concrete type. The
/// original type name is retained for debugging. A message built with
/// [`Message::cloneable`] can also be copied, which is what lets a
/// simulation holding it in its queue fork.
pub struct Message {
    payload: Box<dyn Any>,
    type_name: &'static str,
    clone: Option<CloneFn>,
}

impl Message {
    /// Wraps a concrete value into a type-erased message.
    pub fn new<T: 'static>(value: T) -> Self {
        Message { payload: Box::new(value), type_name: std::any::type_name::<T>(), clone: None }
    }

    /// Wraps a value that [`try_clone`](Self::try_clone) can copy, so a
    /// simulation holding this message can [`fork`](crate::Simulation::fork).
    pub fn cloneable<T: TryClone>(value: T) -> Self {
        Message {
            payload: Box::new(value),
            type_name: std::any::type_name::<T>(),
            clone: Some(clone_payload::<T>),
        }
    }

    /// A deep copy of this message.
    ///
    /// # Errors
    ///
    /// Returns the type name of the payload (or of a message nested in it)
    /// that was not built with [`Message::cloneable`].
    pub fn try_clone(&self) -> Result<Message, &'static str> {
        let clone = self.clone.ok_or(self.type_name)?;
        Ok(Message {
            payload: clone(self.payload.as_ref())?,
            type_name: self.type_name,
            clone: self.clone,
        })
    }

    /// The `std::any::type_name` of the wrapped value (for tracing/debugging).
    pub fn type_name(&self) -> &'static str {
        self.type_name
    }

    /// Returns `true` if the wrapped value is a `T`.
    pub fn is<T: 'static>(&self) -> bool {
        self.payload.is::<T>()
    }

    /// Attempts to take the wrapped value out as a `T`.
    ///
    /// # Errors
    ///
    /// Returns the message unchanged if the wrapped value is not a `T`, so
    /// that dispatch code can try the next candidate type.
    pub fn downcast<T: 'static>(self) -> Result<T, Message> {
        let Message { payload, type_name, clone } = self;
        match payload.downcast::<T>() {
            Ok(v) => Ok(*v),
            Err(payload) => Err(Message { payload, type_name, clone }),
        }
    }

    /// Borrows the wrapped value as a `T`, if it is one.
    pub fn downcast_ref<T: 'static>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }

    /// Mutably borrows the wrapped value as a `T`, if it is one.
    pub fn downcast_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.payload.downcast_mut::<T>()
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message").field("type", &self.type_name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);

    #[test]
    fn downcast_success_and_failure() {
        let m = Message::new(Ping(7));
        assert!(m.is::<Ping>());
        assert!(!m.is::<u32>());
        assert_eq!(m.downcast_ref::<Ping>(), Some(&Ping(7)));
        let m = m.downcast::<u32>().unwrap_err();
        assert_eq!(m.downcast::<Ping>().unwrap(), Ping(7));
    }

    #[test]
    fn downcast_mut_mutates() {
        let mut m = Message::new(Ping(1));
        m.downcast_mut::<Ping>().unwrap().0 = 9;
        assert_eq!(m.downcast::<Ping>().unwrap(), Ping(9));
    }

    #[test]
    fn cloneable_messages_copy_and_plain_ones_name_their_type() {
        let m = Message::cloneable(vec![1u8, 2]);
        let copy = m.try_clone().expect("cloneable");
        assert_eq!(copy.downcast::<Vec<u8>>().unwrap(), vec![1, 2]);
        // A failed downcast keeps the message cloneable.
        let m = m.downcast::<u32>().unwrap_err();
        assert!(m.try_clone().is_ok());
        assert_eq!(Message::new(Ping(3)).try_clone().unwrap_err(), std::any::type_name::<Ping>());
    }

    #[test]
    fn debug_includes_type_name() {
        let m = Message::new(Ping(0));
        let dbg = format!("{m:?}");
        assert!(dbg.contains("Ping"), "{dbg}");
    }
}
