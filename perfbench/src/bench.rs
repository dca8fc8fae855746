//! One untraced run of a workload: set-up, direct solves at `THREADS` and
//! at one thread, then an open-loop served phase (a fixed-rate step and
//! the `slo_qps` ladder) against a `julienne serve` child — with every
//! answer checked.

use crate::child::ServerChild;
use crate::load::{judge_ladder, request_id, run_ladder, run_step, Planned, StepResult};
use crate::stats::{median, poisson_schedule, slo_rate, staircase, tail, Rng, Step};
use crate::workloads::{
    undirected_edges, Input, Mix, Name, Op, Spec, CONNECTIONS, THREADS, WRITE_DELETES,
    WRITE_INSERTS,
};
use crate::Report;
use julienne::prelude::{Backend, QueryCtx};
use julienne_algorithms::delta_stepping::{self, SsspParams};
use julienne_algorithms::dijkstra::dijkstra;
use julienne_algorithms::dynamic::DynamicStore;
use julienne_algorithms::kcore::{coreness, coreness_bz_seq, KcoreParams};
use julienne_algorithms::registry::{GraphStore, ParamMap, Registry};
use julienne_graph::builder::from_pairs_symmetric;
use julienne_graph::Graph;
use julienne_server::json::Json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed reads per thread count, so the tail rule has samples.
const MIN_SOLVES: usize = 21;
/// How a run's `--seconds` are shared among its measured phases.
const SHARE_SOLVE: f64 = 0.45;
const SHARE_FIXED: f64 = 0.25;
const SHARE_LADDER: f64 = 0.30;

/// Reference outputs per read key, and the answer checks.
pub struct Checker {
    pub refs: HashMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checker {
    pub fn new() -> Checker {
        Checker {
            refs: HashMap::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}

pub fn params_of(op: &Op) -> (&'static str, ParamMap) {
    match op {
        Op::Read { algo, params } => (
            algo,
            ParamMap::from_pairs(params.iter().map(|(k, v)| (k.to_string(), v.clone()))),
        ),
        Op::Write { .. } => unreachable!("writes never run in-process"),
    }
}

/// Opens the in-process store this workload's direct solves read: the same
/// file and backend the server is given (the mutable workload keeps its
/// graph in a dynamic store, as `serve mutable=true` does).
pub fn open_store(spec: &Spec, input: &Input) -> Result<GraphStore, String> {
    if spec.name == Name::ServeMutate {
        return Ok(GraphStore::dynamic(Arc::new(DynamicStore::from_graph(
            &input.structure,
        ))));
    }
    let backend = Backend::parse(spec.backend).map_err(|e| e.to_string())?;
    GraphStore::open(&input.file, spec.weighted(), backend).map_err(|e| e.to_string())
}

/// Registers the oracle-checked reference outputs of the batch workloads:
/// k-core against Batagelj–Zaversnik, Δ-stepping against Dijkstra. The
/// reference report is rendered from the oracle's answer, with the peel or
/// round counters of a direct call whose full output vector matched it.
/// Returns the reads it registered, in a fixed order.
pub fn oracle_refs(spec: &Spec, store: &GraphStore, mix: &Mix, chk: &mut Checker) -> Vec<Op> {
    let mut reads = Vec::new();
    match (spec.name, store) {
        (Name::KcoreRmat18, GraphStore::Csr(g)) => {
            let bz = coreness_bz_seq(g.as_ref()).coreness;
            let direct = coreness(g.as_ref(), &KcoreParams::default(), &QueryCtx::default())
                .expect("an uncancelled k-core run succeeds");
            chk.check(direct.coreness == bz, || "k-core differs from BZ".into());
            let k_max = bz.iter().copied().max().unwrap_or(0);
            let mut by_core: Vec<(u32, u32)> =
                bz.iter().enumerate().map(|(v, &c)| (c, v as u32)).collect();
            by_core.sort_unstable_by(|a, b| b.cmp(a));
            let mut out = format!(
                "k_max={k_max} rounds={} moves={}\ntop vertices by coreness:\n",
                direct.rounds, direct.identifiers_moved
            );
            for (c, v) in by_core.into_iter().take(10) {
                let _ = writeln!(out, "  v{v}: coreness {c}");
            }
            let op = Op::Read {
                algo: "kcore",
                params: vec![],
            };
            chk.refs.insert(op.key(), out);
            reads.push(op);
        }
        (Name::SsspRmat18, GraphStore::WCsr(g)) => {
            let n = g.num_vertices();
            for &src in mix.sources() {
                let oracle = dijkstra(g.as_ref(), src);
                let direct = delta_stepping::sssp(
                    g.as_ref(),
                    &SsspParams {
                        src,
                        delta: crate::workloads::BATCH_DELTA,
                    },
                    &QueryCtx::default(),
                )
                .expect("an uncancelled sssp run succeeds");
                chk.check(direct.dist == oracle, || {
                    format!("sssp from {src} differs from Dijkstra")
                });
                let reached: Vec<u64> = oracle.iter().copied().filter(|&d| d != u64::MAX).collect();
                let max = reached.iter().copied().max().unwrap_or(0);
                let out = format!(
                    "algo=delta src={src} reached={}/{n} max_dist={max} rounds={}\n",
                    reached.len(),
                    direct.rounds
                );
                let op = Op::Read {
                    algo: "sssp",
                    params: vec![
                        ("src", src.to_string()),
                        ("algo", "delta".to_string()),
                        ("delta", crate::workloads::BATCH_DELTA.to_string()),
                    ],
                };
                chk.refs.insert(op.key(), out);
                reads.push(op);
            }
        }
        _ => {}
    }
    reads
}

/// The reference output of a read: the oracle-checked one for the batch
/// workloads, else a direct `Registry::run` on the same store (computed
/// once per key).
fn reference(chk: &mut Checker, store: &GraphStore, op: &Op) -> Option<String> {
    let key = op.key();
    if let Some(r) = chk.refs.get(&key) {
        return Some(r.clone());
    }
    let (algo, params) = params_of(op);
    let out = Registry::standard()
        .run(algo, store, &params, &QueryCtx::default())
        .ok()?;
    chk.refs.insert(key, out.clone());
    Some(out)
}

/// Times direct `Registry::run` calls of the workload's reads for at least
/// `budget` and [`MIN_SOLVES`] reads, checking every output. Every read
/// runs at `THREADS`; every other one then runs again at one thread, so
/// both thread counts see the same reads under the same host conditions.
/// Returns the per-call seconds at `THREADS` and at one thread.
pub fn direct_solves(
    store: &GraphStore,
    mix: &mut Mix,
    budget: Duration,
    chk: &mut Checker,
) -> (Vec<f64>, Vec<f64>) {
    let reg = Registry::standard();
    let start = Instant::now();
    let (mut multi, mut single) = (Vec::new(), Vec::new());
    while multi.len() < MIN_SOLVES || start.elapsed() < budget {
        let op = mix.next_op();
        if matches!(op, Op::Write { .. }) {
            continue;
        }
        let (algo, params) = params_of(&op);
        let runs = if multi.len() % 2 == 0 { 2 } else { 1 };
        for (threads, one) in [(THREADS, false), (1, true)].into_iter().take(runs) {
            let out = if one { &mut single } else { &mut multi };
            rayon::set_num_threads(threads);
            let t = Instant::now();
            let result = reg.run(algo, store, &params, &QueryCtx::default());
            out.push(t.elapsed().as_secs_f64());
            match result {
                Ok(text) => {
                    let want = reference(chk, store, &op);
                    chk.check(want.as_deref() == Some(text.as_str()), || {
                        format!("direct {} output differs from its reference", op.key())
                    });
                }
                Err(e) => chk.check(false, || format!("direct {}: {e}", op.key())),
            }
        }
    }
    rayon::set_num_threads(THREADS);
    (multi, single)
}

/// One checked reply of an open-loop step.
pub struct Reply {
    pub key: String,
    pub is_read: bool,
    /// Seconds from the due time; infinite for a failed or missing reply.
    pub latency: f64,
    /// The reply's `cached` / `batched` flags.
    pub cached: bool,
    pub batched: bool,
}

/// What a served phase measured.
pub struct Served {
    /// Every reply of the fixed-rate step.
    pub replies: Vec<Reply>,
    /// Per request of the fixed-rate step: sent late by, seconds.
    pub gen_lag: Vec<f64>,
    pub slo_qps: f64,
    pub ladder: Vec<Step>,
    /// Median resident memory of the server during the fixed-rate step.
    pub rss_mb: f64,
    /// Write batches the server acknowledged.
    pub acked: Vec<Op>,
}

/// Plans requests at the given offsets, each carrying the mix's next
/// operation.
fn plan_ops(mix: &mut Mix, dues: &[Duration]) -> (Vec<Planned>, Vec<Op>) {
    let ops: Vec<Op> = dues.iter().map(|_| mix.next_op()).collect();
    let plan = dues
        .iter()
        .zip(&ops)
        .enumerate()
        .map(|(i, (&due, op))| Planned {
            due,
            line: op.line(&request_id(i)),
        })
        .collect();
    (plan, ops)
}

/// Checks one step's replies: every request answered `ok`, reads equal to
/// their reference (except mid-stream reads of the mutable workload, whose
/// epoch is unknown), writes reporting the model's edge count.
///
/// With `overload` set (ladder steps past capacity), a request that was
/// never sent or never answered is a latency miss only, not a failure.
#[allow(clippy::too_many_arguments)]
fn check_step(
    spec: &Spec,
    store: &GraphStore,
    ops: &[Op],
    step: &StepResult,
    m0: usize,
    overload: bool,
    chk: &mut Checker,
) -> Vec<Reply> {
    let mut out = Vec::with_capacity(ops.len());
    for (op, o) in ops.iter().zip(&step.outcomes) {
        let is_read = matches!(op, Op::Read { .. });
        if overload && o.reply.is_none() {
            out.push(Reply {
                key: op.key(),
                is_read,
                latency: f64::INFINITY,
                cached: false,
                batched: false,
            });
            continue;
        }
        let reply = o.reply.as_deref().and_then(|l| Json::parse(l).ok());
        let field = |k: &str| reply.as_ref().and_then(|r| r.get(k));
        let ok = field("ok").and_then(Json::as_bool) == Some(true);
        let output = field("output").and_then(Json::as_str).unwrap_or("");
        let lat = match (ok, o.latency) {
            (true, Some(d)) => d.as_secs_f64(),
            _ => f64::INFINITY,
        };
        let flag = |k: &str| field(k).and_then(Json::as_bool) == Some(true);
        if is_read {
            if spec.name == Name::ServeMutate {
                chk.check(ok, || format!("served {} failed: {:?}", op.key(), o.reply));
            } else {
                let want = reference(chk, store, op);
                chk.check(ok && want.as_deref() == Some(output), || {
                    format!("served {} differs from direct run: {:?}", op.key(), o.reply)
                });
            }
        } else {
            chk.check(ok && write_matches_model(output, m0), || {
                format!("mutate reply disagrees with the edge model: {:?}", o.reply)
            });
        }
        out.push(Reply {
            key: op.key(),
            is_read,
            latency: lat,
            cached: flag("cached"),
            batched: flag("batched"),
        });
    }
    out
}

/// The writes among `ops` whose reply was a success (a finite latency).
fn acked_writes(ops: &[Op], replies: &[Reply]) -> Vec<Op> {
    ops.iter()
        .zip(replies)
        .filter(|(_, r)| !r.is_read && r.latency.is_finite())
        .map(|(op, _)| op.clone())
        .collect()
}

/// A `mutate` reply `epoch=E applied=A n=N m=M` must show every update
/// applied, and `m` equal to the model's count after `E` batches.
fn write_matches_model(output: &str, m0: usize) -> bool {
    let field = |k: &str| -> Option<usize> {
        output
            .split_whitespace()
            .find_map(|f| f.strip_prefix(k))
            .and_then(|v| v.parse().ok())
    };
    let per_batch = 2 * (WRITE_INSERTS - WRITE_DELETES);
    match (field("epoch="), field("applied="), field("m=")) {
        (Some(e), Some(a), Some(m)) => {
            a == 2 * (WRITE_INSERTS + WRITE_DELETES) && m == m0 + per_batch * e
        }
        _ => false,
    }
}

/// The served phase against a running server: one fixed-rate step, then
/// the ladder staircase (skipped when `ladder` is zero).
#[allow(clippy::too_many_arguments)]
///
/// `warm` reads are sent one at a time first, to fill the result cache:
/// the batch workloads repeat a few queries, and their open loop measures
/// serving, not re-solving.
pub fn served(
    spec: &Spec,
    server: &ServerChild,
    store: &GraphStore,
    mix: &mut Mix,
    warm: &[Op],
    seed: u64,
    (fixed, ladder): (Duration, Duration),
    chk: &mut Checker,
) -> Result<Served, String> {
    let m0 = store.num_edges();
    let limit = spec.limit_ms / 1e3;
    let drain = Duration::from_secs_f64(limit * 4.0).max(Duration::from_secs(2));
    for op in warm {
        let plan = [Planned {
            due: Duration::ZERO,
            line: op.line(&request_id(0)),
        }];
        let r = run_step(&server.addr, &plan, 1, Duration::from_secs(60), None)
            .map_err(|e| e.to_string())?;
        check_step(spec, store, std::slice::from_ref(op), &r, m0, false, chk);
    }
    let dues = poisson_schedule(&mut Rng::new(seed, 50), spec.rate, fixed);
    let (plan, ops) = plan_ops(mix, &dues);
    // Sample the server's resident memory while the step runs.
    let stop = AtomicBool::new(false);
    let (step, rss) = thread::scope(|sc| {
        let sampler = sc.spawn(|| {
            let mut xs = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                xs.push(server.memory_mb("VmRSS:"));
                thread::sleep(Duration::from_millis(50));
            }
            xs
        });
        let step = run_step(&server.addr, &plan, CONNECTIONS, drain, None);
        stop.store(true, Ordering::Relaxed);
        (step, sampler.join().expect("memory sampler panicked"))
    });
    let step = step.map_err(|e| e.to_string())?;
    let rss_mb = median(&rss);
    let gen_lag = step
        .outcomes
        .iter()
        .filter_map(|o| o.send_lag.map(|d| d.as_secs_f64()))
        .collect();
    let replies = check_step(spec, store, &ops, &step, m0, false, chk);
    let mut acked = acked_writes(&ops, &replies);

    if ladder.is_zero() {
        return Ok(Served {
            replies,
            gen_lag,
            slo_qps: 0.0,
            ladder: Vec::new(),
            rss_mb,
            acked,
        });
    }
    let per_step = ladder / spec.ladder.len() as u32;
    let stairs = staircase(&mut Rng::new(seed, 60), spec.ladder, per_step);
    let dues: Vec<Duration> = stairs.iter().map(|&(_, d)| d).collect();
    let step_of: Vec<usize> = stairs.iter().map(|&(k, _)| k).collect();
    let (plan, ops) = plan_ops(mix, &dues);
    let top = spec.ladder.last().copied().unwrap_or(spec.rate);
    let res = run_ladder(
        &server.addr,
        &plan,
        top,
        limit,
        CONNECTIONS,
        Duration::from_secs(30),
    )
    .map_err(|e| e.to_string())?;
    let check = check_step(spec, store, &ops, &res, m0, true, chk);
    acked.extend(acked_writes(&ops, &check));
    let read_lat: Vec<Option<f64>> = check
        .iter()
        .map(|r| r.is_read.then_some(r.latency))
        .collect();
    let steps = judge_ladder(spec.ladder, per_step, &res, &step_of, &read_lat);
    Ok(Served {
        replies,
        gen_lag,
        slo_qps: slo_rate(&steps, limit),
        ladder: steps,
        rss_mb,
        acked,
    })
}

/// After the served phase of the mutable workload: the server's final
/// answers must equal those of the initial graph rebuilt from scratch with
/// every acknowledged batch applied (batches touch disjoint edges, so
/// their order does not matter).
fn check_final_reads(
    server: &ServerChild,
    g: &Graph,
    acked: &[Op],
    chk: &mut Checker,
) -> Result<(), String> {
    let mut edges = undirected_edges(g);
    for op in acked {
        if let Op::Write { insert, delete } = op {
            edges.extend(insert.iter().copied());
            for e in delete {
                edges.remove(e);
            }
        }
    }
    let edges: Vec<(u32, u32)> = edges.into_iter().collect();
    let rebuilt = from_pairs_symmetric(g.num_vertices(), &edges);
    let store = GraphStore::dynamic(Arc::new(DynamicStore::from_graph(&rebuilt)));
    let finals = [
        Op::Read {
            algo: "kcore",
            params: vec![("top", "10".to_string())],
        },
        Op::Read {
            algo: "components",
            params: vec![],
        },
    ];
    for op in &finals {
        // One request at a time on one connection, after every write.
        let plan = [Planned {
            due: Duration::ZERO,
            line: op.line(&request_id(0)),
        }];
        let step = run_step(&server.addr, &plan, 1, Duration::from_secs(30), None)
            .map_err(|e| e.to_string())?;
        let o = &step.outcomes[0];
        let (algo, params) = params_of(op);
        let want = Registry::standard()
            .run(algo, &store, &params, &QueryCtx::default())
            .ok();
        let got = o
            .reply
            .as_deref()
            .and_then(|l| Json::parse(l).ok())
            .and_then(|r| r.get("output").and_then(Json::as_str).map(str::to_string));
        chk.check(want.is_some() && want == got, || {
            format!(
                "final {} differs from the rebuilt graph: {want:?} vs {got:?}",
                op.key()
            )
        });
    }
    Ok(())
}

/// Median and tail of a sample of seconds, recording its size and tail
/// percentile in the report's provenance.
fn summarize(report: &mut Report, name: &str, xs: &[f64], tail_name: Option<&str>) {
    report.samples.push((name.to_string(), xs.len()));
    report.metric(name, median(xs), "s");
    if let Some(tn) = tail_name {
        let (v, pct) = tail(xs).unwrap_or((f64::INFINITY, 0.0));
        report.samples.push((tn.to_string(), xs.len()));
        report.tail_pct.push((tn.to_string(), pct));
        report.metric(tn, v, "s");
    }
}

/// One untraced run: every end-to-end metric.
pub fn run(
    spec: &Spec,
    input: &Input,
    seed: u64,
    seconds: f64,
    julienne: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut chk = Checker::new();
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);

    // Set-up: open the graph, or spawn the server until it listens.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    let store = if spec.is_batch() {
        let mut store = None;
        for _ in 0..SETUPS {
            let t = Instant::now();
            store = Some(open_store(spec, input)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        store.expect("SETUPS > 0")
    } else {
        for _ in 0..SETUPS {
            let s = ServerChild::spawn(julienne, &spec.server_args(&input.file))?;
            setups.push(s.setup.as_secs_f64());
            if let Some(prev) = server.replace(s) {
                prev.shutdown();
            }
        }
        open_store(spec, input)?
    };
    report.samples.push(("setup_s".into(), setups.len()));
    report.metric("setup_s", median(&setups), "s");

    // Direct solves, each read at THREADS and then at one thread.
    let mut direct_mix = Mix::new(spec, &input.structure, seed, 0);
    let warm = oracle_refs(spec, &store, &direct_mix, &mut chk);
    let (solves, solves_1t) = direct_solves(&store, &mut direct_mix, budget(SHARE_SOLVE), &mut chk);
    summarize(&mut report, "solve_s", &solves, Some("solve_tail_s"));
    summarize(&mut report, "solve_1t_s", &solves_1t, None);

    // Served phase; the serve workloads keep the last set-up's server.
    let server = match server {
        Some(s) => s,
        None => ServerChild::spawn(julienne, &spec.server_args(&input.file))?,
    };
    let mut mix = Mix::new(spec, &input.structure, seed, 1);
    let result = served(
        spec,
        &server,
        &store,
        &mut mix,
        &warm,
        seed,
        (budget(SHARE_FIXED), budget(SHARE_LADDER)),
        &mut chk,
    );
    let result = result.and_then(|s| {
        if spec.name == Name::ServeMutate {
            check_final_reads(&server, &input.structure, &s.acked, &mut chk)?;
        }
        Ok(s)
    });
    server.shutdown();
    let s = result?;
    let reads: Vec<f64> = s
        .replies
        .iter()
        .filter(|r| r.is_read)
        .map(|r| r.latency)
        .collect();
    // Served read latency is reported on standard error only: between seeds
    // its median moved by more than the largest bound on a shared 2-core
    // host, so it is not a judged metric.
    if let Some((v, pct)) = tail(&reads) {
        report.notes.push(format!(
            "served read latency p50 {:.3} ms, p{pct:.1} {:.3} ms over {} reads",
            median(&reads) * 1e3,
            v * 1e3,
            reads.len()
        ));
    }
    report.metric("rss_mb", s.rss_mb, "MiB");
    // Like the read latency, `slo_qps` is reported but not judged: on the
    // batch workloads every ladder step passes, so it reads as the offered
    // rate of the top step.
    report.notes.push(format!(
        "slo_qps {:.1}/s; ladder {}",
        s.slo_qps,
        s.ladder
            .iter()
            .map(|st| format!(
                "{}/s:p50={:.1}ms,backlog={}",
                st.rate,
                st.latency * 1e3,
                st.backlog
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.attempted = chk.attempted;
    report.failed = chk.failed;
    report.notes.extend(chk.notes);
    Ok(report)
}
