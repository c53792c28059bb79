//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rw_open|rw_deep|alloc_migrate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats rounds until `--seconds` have passed: each round builds
//! and runs the chosen cluster workload once, then makes one fixed
//! model-checker search of the CN/MN transport. With `--trace 0` it prints
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! traced run. The last line of standard output is one JSON object; the
//! process exits non-zero if any correctness check failed. See
//! `perfbench/README.md` for the workloads and the metric map.

mod report;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use clio_mc::{explore, McConfig};
use clio_trace::metrics::Snapshot;
use clio_trace::{check_trace, Stage};

use report::{median, percentile, Report, Source};
use workloads::{Inputs, Outcome, Workload};

/// Model-checker bounds of the fixed search. One search follows every
/// cluster instance, so host-time samples of both spread over the run.
const MC_DEPTH: usize = 5;
const MC_FAULTS: u32 = 2;
/// Distinct states the search reaches at those bounds. A different count
/// means the transport's reachable state space changed.
const MC_DISTINCT_STATES: usize = 6_823;
/// Cluster instances a run makes at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<String, String> {
            let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
            argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
        };
        let name = get("--workload")?;
        let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
        let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        let seed = num("--seed", get("--seed")?)?;
        let seconds = num("--seconds", get("--seconds")?)?;
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        Ok(Args { workload, seed, seconds, trace })
    }
}

/// The fixed model-checker searches of one run.
#[derive(Default)]
struct McRun {
    nodes: u64,
    distinct_states: usize,
    /// Host seconds of each search.
    times: Vec<f64>,
}

impl McRun {
    /// Runs one search and checks it.
    fn search(&mut self, errors: &mut Vec<String>) {
        let cfg = McConfig { max_depth: MC_DEPTH, fault_budget: MC_FAULTS, ..McConfig::default() };
        let started = Instant::now();
        let report = explore(&cfg);
        self.times.push(started.elapsed().as_secs_f64());
        if let Some(v) = &report.violation {
            errors.push(format!("model checker found a violation: {}", v.message));
        }
        if report.truncated {
            errors.push("model-checker search hit its node cap".into());
        }
        if report.distinct_states != MC_DISTINCT_STATES {
            errors.push(format!(
                "model checker reached {} distinct states at depth {MC_DEPTH} / {MC_FAULTS} \
                 faults, expected {MC_DISTINCT_STATES}",
                report.distinct_states
            ));
        }
        if self.times.len() > 1
            && (self.nodes, self.distinct_states) != (report.nodes, report.distinct_states)
        {
            errors.push("model-checker searches of the same bounds disagree".into());
        }
        (self.nodes, self.distinct_states) = (report.nodes, report.distinct_states);
    }

    /// Median host seconds of one search.
    fn secs(&self) -> f64 {
        median(&self.times)
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Checks one instance on its own and against the first instance of the
/// same seed: same digest, same modeled results.
fn check(o: &Outcome, reference: &Outcome, what: &str, errors: &mut Vec<String>) {
    errors.extend(o.errors.iter().map(|e| format!("{what}: {e}")));
    if o.failed > 0 {
        errors.push(format!("{what}: {} ops failed", o.failed));
    }
    if o.digest != reference.digest {
        errors.push(format!(
            "{what}: digest {:#x} differs from the first instance's {:#x}",
            o.digest, reference.digest
        ));
    }
    if o.modeled != reference.modeled {
        errors.push(format!("{what}: modeled results differ from the first instance's"));
    }
}

/// Runs instances, each followed by one model-checker search, until the
/// deadline (and at least `MIN_ROUNDS`). `traced(i)` says whether instance
/// `i` is traced.
fn rounds(
    inputs: &Inputs,
    seed: u64,
    deadline: Instant,
    traced: impl Fn(usize) -> bool,
    mc: &mut McRun,
    errors: &mut Vec<String>,
) -> Vec<(bool, Outcome)> {
    let mut out = Vec::new();
    while out.len() < MIN_ROUNDS || Instant::now() < deadline {
        let t = traced(out.len());
        let mut o = workloads::run(inputs, seed, t, false);
        if out.iter().any(|(was_traced, _)| *was_traced) {
            // Only the first traced instance's spans are analysed.
            o.traces = Vec::new();
        }
        out.push((t, o));
        mc.search(errors);
    }
    out
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// End-to-end metrics from untraced instances.
fn end_to_end(
    report: &mut Report,
    workload: Workload,
    runs: &[&Outcome],
    mc: &McRun,
    errors: &mut Vec<String>,
) {
    let first = runs[0];
    let setups: Vec<f64> = runs.iter().map(|o| o.setup.as_secs_f64()).collect();
    let rates: Vec<f64> =
        runs.iter().map(|o| o.modeled.ops as f64 / o.measured.as_secs_f64()).collect();
    report.add_noted(
        "setup_s",
        median(&setups),
        "s",
        Source::Host,
        format!("median of {} set-ups: build, prefill, warm-up", setups.len()),
    );
    report.add_noted(
        "host_ops_per_s",
        median(&rates),
        "1/s",
        Source::Host,
        format!("median of {} instances, {} measured ops each", rates.len(), first.modeled.ops),
    );
    report.add("host_peak_rss_mb", peak_rss_mb(), "MB", Source::Host);
    // (latency class: 0 read, 1 write, 2 alloc; metric; quantile)
    let mut percentiles = vec![
        (0, "read_p50_us", 0.50),
        (0, "read_p99_us", 0.99),
        (0, "read_p999_us", 0.999),
        (1, "write_p50_us", 0.50),
        (1, "write_p99_us", 0.99),
        (1, "write_p999_us", 0.999),
    ];
    if workload == Workload::AllocMigrate {
        percentiles.extend([(2, "alloc_p50_us", 0.50), (2, "alloc_p99_us", 0.99)]);
    }
    for (class, name, q) in percentiles {
        let samples = &first.modeled.latency_ns[class];
        match percentile(samples, q) {
            Some((ns, beyond)) => report.add_noted(
                name,
                us(ns as f64),
                "us",
                Source::Modeled,
                format!("n={} ({beyond} beyond)", samples.len()),
            ),
            None => errors.push(format!(
                "{name}: only {} samples, fewer than 10 beyond the percentile",
                samples.len()
            )),
        }
    }
    report.add_noted(
        "goodput_gbps",
        first.modeled.goodput_gbps(),
        "Gbps",
        Source::Modeled,
        format!(
            "{} payload bytes over {:.3} ms simulated",
            first.modeled.payload_bytes,
            first.modeled.span.as_secs_f64() * 1e3
        ),
    );
    report.add_noted(
        "mc_states_per_s",
        mc.distinct_states as f64 / mc.secs(),
        "1/s",
        Source::Host,
        format!(
            "{} distinct states, median {:.3} s of {} searches",
            mc.distinct_states,
            mc.secs(),
            mc.times.len()
        ),
    );
}

fn counter_sum(s: &Snapshot, suffix: &str) -> u64 {
    s.counters.iter().filter(|(k, _)| k.ends_with(suffix)).map(|(_, v)| v).sum()
}

/// Per-layer metrics from one traced instance, its untraced twin, and a
/// set-up-only instance whose counters are subtracted so that counts
/// cover the measured phase alone.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    traced: &Outcome,
    untraced: &[&Outcome],
    base: &Outcome,
    traced_wall: f64,
    untraced_wall: f64,
    mc: &McRun,
    errors: &mut Vec<String>,
) {
    let plain = untraced[0];
    let measured: Vec<_> =
        traced.traces.iter().filter(|t| t.begin >= traced.measure_start).collect();
    for t in &traced.traces {
        if let Err(e) = check_trace(t) {
            errors.push(format!("trace check: {e}"));
            break;
        }
    }
    // An op re-routed after a `Moved` refusal is traced twice, so traces
    // may outnumber ops, never the reverse.
    if (measured.len() as u64) < traced.modeled.ops {
        errors.push(format!(
            "{} measured ops but only {} measured traces",
            traced.modeled.ops,
            measured.len()
        ));
    }
    let ops = plain.modeled.ops.max(1) as f64;
    let ctr = |suffix: &str| {
        (counter_sum(&plain.registry, suffix) - counter_sum(&base.registry, suffix)) as f64
    };
    let (b, b0) = (&plain.boards, &base.boards);
    let note = format!("mean per op; {} ops, {} traces", plain.modeled.ops, measured.len());
    let stage = |report: &mut Report, name: &'static str, s: Stage| {
        let ns: u64 = measured.iter().map(|t| t.stage_total(s).as_nanos()).sum();
        report.add_noted(name, us(ns as f64) / ops, "us", Source::Modeled, note.clone());
    };

    stage(report, "hw.ingress_mac_us", Stage::IngressMac);
    stage(report, "hw.pipeline_wait_us", Stage::PipelineWait);
    stage(report, "hw.parse_us", Stage::Parse);
    stage(report, "hw.tlb_us", Stage::Tlb);
    stage(report, "hw.ptwalk_us", Stage::PtWalk);
    stage(report, "hw.interconnect_us", Stage::Interconnect);
    stage(report, "hw.dram_us", Stage::Dram);
    stage(report, "hw.dma_us", Stage::Dma);
    let (hits, misses) = (b.tlb_hits - b0.tlb_hits, b.tlb_misses - b0.tlb_misses);
    report.add_noted(
        "hw.tlb_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        Source::Modeled,
        format!("{hits} hits, {misses} misses"),
    );
    report.add("hw.page_faults", (b.page_faults - b0.page_faults) as f64, "count", Source::Modeled);
    let stalls = (b.fault_stalls - b0.fault_stalls) as f64;
    report.add("hw.fault_stalls", stalls, "count", Source::Modeled);

    stage(report, "net.nic_serialize_us", Stage::NicSerialize);
    stage(report, "net.wire_us", Stage::Wire);

    stage(report, "cn.submit_us", Stage::Submit);
    stage(report, "cn.doorbell_hold_us", Stage::DoorbellHold);
    stage(report, "cn.pack_us", Stage::Pack);
    stage(report, "cn.complete_us", Stage::Complete);
    stage(report, "cn.conflict_backoff_us", Stage::ConflictBackoff);
    stage(report, "cn.timeout_wait_us", Stage::TimeoutWait);
    let retries = ctr(".transport.retries") * 1000.0 / ops;
    report.add("cn.retries_per_kop", retries, "1/kop", Source::Modeled);
    report.add_noted(
        "cn.batched_ops_frac",
        ctr(".transport.batched_ops") / ctr(".board.rx_packets").max(1.0),
        "ratio",
        Source::Modeled,
        "requests sent in multi-request frames / request packets".into(),
    );

    stage(report, "mn.egress_hold_us", Stage::EgressHold);
    stage(report, "mn.slowpath_us", Stage::SlowPath);
    stage(report, "mn.execute_tail_us", Stage::ExecuteTail);
    stage(report, "mn.control_us", Stage::Control);
    report.add("mn.rx_frames_per_op", ctr(".board.rx_frames") / ops, "1/op", Source::Modeled);
    report.add("mn.tx_frames_per_op", ctr(".board.tx_frames") / ops, "1/op", Source::Modeled);
    report.add("mn.slow_ops", ctr(".board.slow_ops"), "count", Source::Modeled);
    report.add("mn.conflicts", ctr(".board.conflicts"), "count", Source::Modeled);
    report.add("mn.moved", ctr(".board.moved"), "count", Source::Modeled);
    report.add("mn.dedup_replays", ctr(".board.dedup_replays"), "count", Source::Modeled);

    stage(report, "core.submit_queued_us", Stage::SubmitQueued);
    report.add("core.peak_inflight", plain.peak_inflight as f64, "count", Source::Modeled);
    report.add("core.migrations", (b.migrations - b0.migrations) as f64, "count", Source::Modeled);
    let events = (plain.events - base.events) as f64;
    report.add("sim.events_per_op", events / ops, "1/op", Source::Modeled);
    let ns_per_event: Vec<f64> =
        untraced.iter().map(|o| o.measured.as_secs_f64() * 1e9 / events).collect();
    report.add_noted(
        "sim.host_ns_per_event",
        median(&ns_per_event),
        "ns",
        Source::Host,
        format!("median of {} untraced instances", ns_per_event.len()),
    );
    report.add_noted(
        "trace.overhead_frac",
        traced_wall / untraced_wall - 1.0,
        "ratio",
        Source::Host,
        format!("median traced {traced_wall:.3} s vs untraced {untraced_wall:.3} s wall"),
    );
    report.add("mc.nodes", mc.nodes as f64, "count", Source::Modeled);
    report.add("mc.distinct_states", mc.distinct_states as f64, "count", Source::Modeled);
    report.add("mc.host_us_per_node", mc.secs() * 1e6 / mc.nodes as f64, "us", Source::Host);
    report.add_noted(
        "ops_failed_frac",
        plain.failed as f64 / plain.attempted.max(1) as f64,
        "ratio",
        Source::Modeled,
        format!("{} of {} ops", plain.failed, plain.attempted),
    );
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <rw_open|rw_deep|alloc_migrate> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut errors = Vec::new();
    let mut mc = McRun::default();
    let inputs = Inputs::draw(args.workload, args.seed);
    let mut report = Report::default();

    let all: Vec<(bool, Outcome)>;
    if args.trace {
        let base = workloads::run(&inputs, args.seed, false, true);
        errors.extend(base.errors.iter().map(|e| format!("set-up-only instance: {e}")));
        all = rounds(&inputs, args.seed, deadline, |i| i % 2 == 1, &mut mc, &mut errors);
        let reference = &all[0].1;
        for (i, (t, o)) in all.iter().enumerate() {
            check(o, reference, &format!("instance {i} (traced: {t})"), &mut errors);
        }
        let wall = |traced: bool| {
            let v: Vec<f64> = all
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, o)| (o.setup + o.measured).as_secs_f64())
                .collect();
            median(&v)
        };
        let untraced: Vec<&Outcome> = all.iter().filter(|(t, _)| !t).map(|(_, o)| o).collect();
        let traced = &all.iter().find(|(t, _)| *t).expect("a traced instance ran").1;
        per_layer(&mut report, traced, &untraced, &base, wall(true), wall(false), &mc, &mut errors);
    } else {
        all = rounds(&inputs, args.seed, deadline, |_| false, &mut mc, &mut errors);
        let reference = &all[0].1;
        for (i, (_, o)) in all.iter().enumerate() {
            check(o, reference, &format!("instance {i}"), &mut errors);
        }
        let runs: Vec<&Outcome> = all.iter().map(|(_, o)| o).collect();
        end_to_end(&mut report, args.workload, &runs, &mc, &mut errors);
    }

    for m in &report.metrics {
        if !m.value.is_finite() {
            errors.push(format!("{} is not a finite number", m.name));
        }
    }
    let attempted: u64 = all.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = all.iter().map(|(_, o)| o.failed).sum();
    let correct = errors.is_empty();
    report.print_table(&format!(
        "{} seed {} ({} instances, {})",
        args.workload.name(),
        args.seed,
        all.len(),
        if args.trace { "per-layer, traced" } else { "end-to-end, untraced" }
    ));
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    println!("{}", report.json(correct, attempted, failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
