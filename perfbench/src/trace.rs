//! The traced run: per-layer metrics. Every probe times calls into one
//! crate's public functions from here, recording a span per call; the
//! program's own per-round records come from `QueryCtx::with_stats`. The
//! spans are kept in memory and written out when the run ends.

use crate::bench::{self, Checker};
use crate::child::ServerChild;
use crate::stats::{median, Rng};
use crate::workloads::{self, Input, Mix, Name, Op, Spec, BATCH_DELTA, THREADS};
use crate::Report;
use julienne::prelude::{BucketDest, Bucketing, Engine, Order, QueryCtx, NULL_BKT};
use julienne_algorithms::delta_stepping::{self, SsspParams};
use julienne_algorithms::dijkstra::dijkstra;
use julienne_algorithms::dynamic::DynamicStore;
use julienne_algorithms::gap_delta::gap_delta_stepping;
use julienne_algorithms::kcore::{coreness, coreness_bz_seq, KcoreParams};
use julienne_algorithms::registry::{GraphStore, ParamMap, Registry};
use julienne_graph::transform::assign_weights;
use julienne_graph::{Graph, VertexId, WGraph};
use julienne_ligra::edge_map::EdgeMap;
use julienne_ligra::edge_map_reduce::edge_map_sum;
use julienne_ligra::traits::OutEdges;
use julienne_primitives::filter::{filter, pack_index};
use julienne_server::json::Json;
use julienne_server::Client;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds extracting fewer identifiers than this count as small.
const SMALL_ROUND: usize = 256;
/// Reads run both with and without stats for the overhead comparison.
const TRACED_READS: usize = 24;

/// One timed call into a layer.
struct Span {
    layer: &'static str,
    call: &'static str,
    start_us: u128,
    dur_us: f64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Times `f` as one span and returns its result with its seconds.
    fn time<R>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let t = Instant::now();
        let r = f();
        let secs = t.elapsed().as_secs_f64();
        self.spans.push(Span {
            layer,
            call,
            start_us: t.duration_since(self.origin).as_micros(),
            dur_us: secs * 1e6,
        });
        (r, secs)
    }

    /// Median seconds of `reps` spans of `f`.
    fn median_of(
        &mut self,
        layer: &'static str,
        call: &'static str,
        reps: usize,
        mut f: impl FnMut(),
    ) -> f64 {
        let xs: Vec<f64> = (0..reps)
            .map(|_| self.time(layer, call, &mut f).1)
            .collect();
        median(&xs)
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"layer\":\"{}\",\"call\":\"{}\",\"start_us\":{},\"dur_us\":{:.3}}}",
                    s.layer, s.call, s.start_us, s.dur_us
                )
            })
            .collect();
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// Dispatches `$body` over the out-edge graph a store reads.
macro_rules! with_graph {
    ($store:expr, |$g:ident| $body:expr) => {
        match $store {
            GraphStore::Csr(x) => {
                let $g = x.as_ref();
                $body
            }
            GraphStore::WCsr(x) => {
                let $g = x.as_ref();
                $body
            }
            GraphStore::Mapped(x) => {
                let $g = x.as_ref();
                $body
            }
            GraphStore::WMapped(x) => {
                let $g = x.as_ref();
                $body
            }
            GraphStore::Dynamic { store, .. } => {
                let snap = store.snapshot();
                let $g = snap.csr();
                $body
            }
            _ => unreachable!("workloads use csr, mapped and dynamic stores"),
        }
    };
}

/// One full pass over every out-edge, ns per edge.
fn scan_ns<G: OutEdges>(t: &mut Tracer, g: &G) -> f64 {
    let m = g.num_edges().max(1) as f64;
    let secs = t.median_of("graph", "OutEdges::for_each_out", 3, || {
        let mut acc = 0u64;
        for v in 0..g.num_vertices() as VertexId {
            g.for_each_out(v, |u, _| acc = acc.wrapping_add(u as u64));
        }
        black_box(acc);
    });
    secs * 1e9 / m
}

/// Frontiers of the given sizes: prefixes of a seeded vertex order.
fn frontiers(n: usize, sizes: &[usize], seed: u64) -> Vec<Vec<VertexId>> {
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = Rng::new(seed, 30);
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    sizes.iter().map(|&s| order[..s.min(n)].to_vec()).collect()
}

/// `EdgeMap` sparse traversal, `edge_map_sum`, and one-vertex call cost.
fn ligra_probes<G: OutEdges>(t: &mut Tracer, g: &G, fronts: &[Vec<VertexId>]) -> (f64, f64, f64) {
    let edges: usize = fronts
        .iter()
        .map(|f| f.iter().map(|&v| g.out_degree(v)).sum::<usize>())
        .sum();
    let edges = edges.max(1) as f64;
    let em = EdgeMap::new(g);
    let sparse = t.median_of("ligra", "EdgeMap::run_sparse", 3, || {
        for f in fronts {
            black_box(em.run_sparse(f, |_, v, _| v % 2 == 0, |_| true).len());
        }
    });
    let reduce = t.median_of("ligra", "edge_map_sum", 3, || {
        for f in fronts {
            black_box(edge_map_sum(g, f, |_, c| Some(c), |_| true).len());
        }
    });
    let one = (0..g.num_vertices() as VertexId)
        .find(|&v| g.out_degree(v) > 0)
        .unwrap_or(0);
    let reps = 2000;
    let fixed = t.median_of("ligra", "EdgeMap::run_sparse(1 vertex)", 5, || {
        for _ in 0..reps {
            black_box(em.run_sparse(&[one], |_, _, _| true, |_| true).len());
        }
    }) / reps as f64;
    (sparse * 1e9 / edges, reduce * 1e9 / edges, fixed * 1e6)
}

/// Drives `Engine::buckets` through rounds extracting `sizes[r]` ids and
/// then moving `moves[r]` ids one bucket down: ns per id extracted by
/// `next_bucket`, ns per id moved by `update_buckets`.
fn bucket_probe(t: &mut Tracer, n: usize, sizes: &[usize], moves: &[usize]) -> (f64, f64) {
    let total: usize = sizes.iter().sum::<usize>().min(n);
    // Ids 0..total fill buckets in round order; the rest stay out.
    let d: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NULL_BKT)).collect();
    let mut next_id = 0usize;
    for (r, &s) in sizes.iter().enumerate() {
        for _ in 0..s.min(total - next_id) {
            d[next_id].store(r as u32 + 1, Ordering::Relaxed);
            next_id += 1;
        }
    }
    let engine = Engine::default();
    let mut b = engine.buckets(
        n,
        |i| d[i as usize].load(Ordering::Relaxed),
        Order::Increasing,
    );
    let (mut next_s, mut upd_s, mut extracted, mut moved) = (0.0, 0.0, 0usize, 0usize);
    let mut cursor = 0usize;
    for r in 0..sizes.len() {
        let (out, secs) = t.time("core", "Buckets::next_bucket", || b.next_bucket());
        let Some((_, ids)) = out else { break };
        next_s += secs;
        extracted += ids.len();
        cursor = cursor.max(ids.iter().map(|&i| i as usize + 1).max().unwrap_or(0));
        // Move up to moves[r] not-yet-extracted ids from their bucket to
        // the one before it (never below the next round's bucket).
        let lo = r as u32 + 2;
        let mut batch: Vec<(u32, BucketDest)> = Vec::new();
        for (i, slot) in d.iter().enumerate().take(total).skip(cursor) {
            if batch.len() >= moves.get(r).copied().unwrap_or(0) {
                break;
            }
            let cur = slot.load(Ordering::Relaxed);
            if cur > lo {
                slot.store(cur - 1, Ordering::Relaxed);
                batch.push((i as u32, b.get_bucket(i as u32, cur, cur - 1)));
            }
        }
        let batch: Vec<(u32, BucketDest)> =
            batch.into_iter().filter(|(_, d)| !d.is_null()).collect();
        moved += batch.len();
        upd_s += t
            .time("core", "Buckets::update_buckets", || {
                b.update_buckets(&batch)
            })
            .1;
    }
    (
        next_s * 1e9 / extracted.max(1) as f64,
        upd_s * 1e9 / moved.max(1) as f64,
    )
}

/// One bucket round holding a single id: `next_bucket` plus an empty
/// `update_buckets`, microseconds.
fn round_fixed_us(t: &mut Tracer, n: usize) -> f64 {
    let rounds = 256usize.min(n);
    let d: Vec<u32> = (0..n)
        .map(|i| if i < rounds { i as u32 } else { NULL_BKT })
        .collect();
    let engine = Engine::default();
    let mut b = engine.buckets(n, |i| d[i as usize], Order::Increasing);
    let xs: Vec<f64> = (0..rounds)
        .map(|_| {
            t.time("core", "bucket round (1 id)", || {
                black_box(b.next_bucket());
                b.update_buckets(&[]);
            })
            .1
        })
        .collect();
    median(&xs) * 1e6
}

/// What the program's per-round records and counters say about a set of
/// stats queries.
#[derive(Default)]
struct Rounds {
    rounds: u64,
    small: u64,
    time_us: u64,
    small_time_us: u64,
    edges_scanned: u64,
    edges_relaxed: u64,
    counters_nonzero: bool,
    frontiers: Vec<usize>,
    relaxed: Vec<usize>,
    /// Median untraced seconds per kind of read.
    solo: HashMap<String, f64>,
}

/// Runs `ops` with and without stats (alternating passes) and returns the
/// traced rounds plus the untraced and traced seconds.
fn stats_runs(
    t: &mut Tracer,
    store: &GraphStore,
    ops: &[Op],
    chk: &mut Checker,
) -> (Rounds, f64, f64) {
    let reg = Registry::standard();
    let mut acc = Rounds::default();
    let (mut plain, mut traced) = (0.0, 0.0);
    let mut solo: HashMap<String, Vec<f64>> = HashMap::new();
    for pass in 0..4 {
        let stats = pass % 2 == 1;
        for op in ops {
            let (algo, params) = bench::params_of(op);
            let ctx = QueryCtx::default().with_stats(stats);
            let (r, secs) = t.time("algorithms", "Registry::run", || {
                reg.run(algo, store, &params, &ctx)
            });
            chk.check(r.is_ok(), || {
                format!("traced {} failed: {:?}", op.key(), r.as_ref().err())
            });
            if stats {
                traced += secs;
            } else {
                plain += secs;
                solo.entry(kind_of(&op.key())).or_default().push(secs);
            }
            if pass != 1 {
                continue;
            }
            let snap = ctx.snapshot();
            let get = |k: &str| {
                snap.counters
                    .iter()
                    .find(|(n, _)| *n == k)
                    .map_or(0, |(_, v)| *v)
            };
            acc.counters_nonzero |= snap.counters.iter().any(|(_, v)| *v > 0);
            acc.edges_scanned += get("edges_scanned");
            acc.edges_relaxed += get("edges_relaxed");
            for rec in &snap.rounds {
                acc.rounds += 1;
                acc.time_us += rec.elapsed_us;
                acc.frontiers.push(rec.frontier);
                acc.relaxed.push(rec.edges_relaxed as usize);
                if rec.frontier < SMALL_ROUND {
                    acc.small += 1;
                    acc.small_time_us += rec.elapsed_us;
                }
            }
        }
    }
    acc.solo = solo.into_iter().map(|(k, v)| (k, median(&v))).collect();
    (acc, plain, traced)
}

/// The graph's structure with the Δ-stepping weights, for the SSSP
/// yardsticks on unweighted workloads.
fn weighted_view(store: &GraphStore, structure: &Graph, seed: u64) -> Arc<WGraph> {
    match store {
        GraphStore::WCsr(g) => Arc::clone(g),
        GraphStore::WMapped(g) => Arc::new(g.to_csr().expect("a mapped graph validates")),
        _ => Arc::new(assign_weights(structure, 1, 100_000, seed ^ 0xF00D)),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn run(
    spec: &Spec,
    input: &Input,
    seed: u64,
    seconds: f64,
    julienne: &Path,
    work: &Path,
) -> Result<Report, String> {
    let mut t = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut r = Report::default();
    let mut chk = Checker::new();
    let n = input.structure.num_vertices();

    // graph: open, full scan.
    let opens: Vec<f64> = (0..5)
        .map(|_| {
            t.time("graph", "GraphStore::open", || {
                bench::open_store(spec, input)
            })
            .1
        })
        .collect();
    let store = bench::open_store(spec, input)?;
    r.metric("graph.open_ms", median(&opens) * 1e3, "ms");
    let scan = with_graph!(&store, |g| scan_ns(&mut t, g));
    r.metric("graph.scan_ns_per_edge", scan, "ns");

    // algorithms + core + ligra counts: the workload's reads with stats.
    let mut mix = Mix::new(spec, &input.structure, seed, 0);
    let warm = bench::oracle_refs(spec, &store, &mix, &mut chk);
    let want = match spec.name {
        Name::KcoreRmat18 => 2,
        Name::SsspRmat18 => mix.sources().len(),
        Name::ServeMix | Name::ServeMutate => TRACED_READS,
    };
    let ops: Vec<Op> = std::iter::repeat_with(|| mix.next_op())
        .filter(|op| matches!(op, Op::Read { .. }))
        .take(want)
        .collect();
    let (rounds, plain, traced) = stats_runs(&mut t, &store, &ops, &mut chk);
    if !rounds.counters_nonzero {
        return Err(
            "every telemetry counter read zero: the program was built without its \
                    `telemetry` feature, so the traced run cannot attribute anything"
                .into(),
        );
    }
    r.metric(
        "bench.trace_overhead_frac",
        ratio(traced - plain, plain),
        "frac",
    );
    r.metric("ligra.edges_scanned", rounds.edges_scanned as f64, "count");
    r.metric(
        "ligra.relax_ratio",
        ratio(rounds.edges_relaxed as f64, rounds.edges_scanned as f64),
        "frac",
    );
    r.metric("core.bucket.rounds", rounds.rounds as f64, "count");
    r.metric(
        "core.bucket.small_round_share",
        ratio(rounds.small as f64, rounds.rounds as f64),
        "frac",
    );
    r.metric(
        "core.bucket.small_round_time_share",
        ratio(rounds.small_time_us as f64, rounds.time_us as f64),
        "frac",
    );

    // primitives: filter / pack_index at the size of a small round.
    let small: Vec<f64> = rounds
        .frontiers
        .iter()
        .filter(|&&f| f < SMALL_ROUND)
        .map(|&f| f as f64)
        .collect();
    let size = if small.is_empty() {
        64
    } else {
        median(&small).max(1.0) as usize
    };
    let ids: Vec<u32> = (0..size as u32).collect();
    let reps = 2000;
    let filt = t.median_of("primitives", "filter+pack_index", 5, || {
        for _ in 0..reps {
            black_box(filter(&ids, |&v| v % 3 != 0));
            black_box(pack_index(size, |i| i % 3 != 0));
        }
    });
    r.metric("primitives.small_filter_us", filt * 1e6 / reps as f64, "us");

    // ligra: frontiers sized as the recorded rounds (the largest 32).
    let mut sizes = rounds.frontiers.clone();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    sizes.truncate(32);
    let fronts = frontiers(n, &sizes, seed);
    let (sparse, reduce, fixed) = with_graph!(&store, |g| ligra_probes(&mut t, g, &fronts));
    r.metric("ligra.sparse_ns_per_edge", sparse, "ns");
    r.metric("ligra.reduce_ns_per_edge", reduce, "ns");
    r.metric("ligra.call_fixed_us", fixed, "us");

    // core: the bucket structure replaying the recorded round shapes.
    let (next_ns, upd_ns) = bucket_probe(&mut t, n, &rounds.frontiers, &rounds.relaxed);
    r.metric("core.bucket.next_ns_per_id", next_ns, "ns");
    r.metric("core.bucket.update_ns_per_id", upd_ns, "ns");
    r.metric(
        "core.bucket.round_fixed_us",
        round_fixed_us(&mut t, n),
        "us",
    );

    // algorithms: registry overhead over a direct call on the same graph.
    let reg = Registry::standard();
    let (reg_s, direct_s) = if spec.weighted() {
        let src = mix.sources()[0];
        let params = ParamMap::from_pairs([("src", src.to_string())]);
        let a = t.median_of("algorithms", "Registry::run(sssp)", 3, || {
            black_box(reg.run("sssp", &store, &params, &QueryCtx::default()).ok());
        });
        let b = match &store {
            GraphStore::WCsr(g) => weighted_direct(&mut t, g.as_ref(), src),
            GraphStore::WMapped(g) => weighted_direct(&mut t, g.as_ref(), src),
            _ => unreachable!("weighted workloads use csr or mapped stores"),
        };
        (a, b)
    } else {
        let csr = GraphStore::Csr(Arc::new(input.structure.clone()));
        let a = t.median_of("algorithms", "Registry::run(kcore)", 3, || {
            black_box(
                reg.run("kcore", &csr, &ParamMap::default(), &QueryCtx::default())
                    .ok(),
            );
        });
        let b = t.median_of("algorithms", "coreness", 3, || {
            black_box(
                coreness(
                    &input.structure,
                    &KcoreParams::default(),
                    &QueryCtx::default(),
                )
                .ok(),
            );
        });
        (a, b)
    };
    r.metric(
        "algorithms.registry_overhead_ms",
        (reg_s - direct_s) * 1e3,
        "ms",
    );

    // graph + algorithms write path: publish a batch, then the maintained
    // k-core answer for the new snapshot.
    let ds = DynamicStore::from_graph(&input.structure);
    let ctx = QueryCtx::default();
    ds.coreness_for(&ds.snapshot(), &ctx)
        .map_err(|e| e.to_string())?;
    let (mut publish, mut incr) = (Vec::new(), Vec::new());
    for batch in workloads::write_batches(&input.structure, seed, 5) {
        let (res, secs) = t.time("graph", "DynamicStore::apply_batch", || {
            ds.apply_batch(&batch)
        });
        chk.check(res.is_ok(), || "apply_batch failed".into());
        publish.push(secs);
        let snap = ds.snapshot();
        let (res, secs) = t.time("algorithms", "DynamicStore::coreness_for", || {
            ds.coreness_for(&snap, &ctx)
        });
        chk.check(res.is_ok(), || "coreness_for failed".into());
        incr.push(secs);
    }
    r.metric("graph.publish_ms", median(&publish) * 1e3, "ms");
    r.metric("algorithms.incremental_kcore_ms", median(&incr) * 1e3, "ms");

    // Yardsticks at one thread, each cross-checked.
    rayon::set_num_threads(1);
    let (bz, bz_s) = t.time("algorithms", "coreness_bz_seq", || {
        coreness_bz_seq(&input.structure)
    });
    let peel = coreness(
        &input.structure,
        &KcoreParams::default(),
        &QueryCtx::default(),
    )
    .map_err(|e| e.to_string())?;
    chk.check(bz.coreness == peel.coreness, || {
        "BZ and Julienne k-core disagree".into()
    });
    let wg = weighted_view(&store, &input.structure, Rng::new(seed, 1).next_u64());
    let src = mix.sources()[0];
    let (dj, dj_s) = t.time("algorithms", "dijkstra", || dijkstra(wg.as_ref(), src));
    let (gap, gap_s) = t.time("algorithms", "gap_delta_stepping", || {
        gap_delta_stepping(wg.as_ref(), src, BATCH_DELTA)
    });
    chk.check(gap.dist == dj, || {
        "GAP Δ-stepping and Dijkstra disagree".into()
    });
    rayon::set_num_threads(THREADS);
    r.metric("algorithms.bz_kcore_s", bz_s, "s");
    r.metric("algorithms.gap_delta_s", gap_s, "s");
    r.metric("algorithms.dijkstra_s", dj_s, "s");

    // server: one fixed-rate step (no stats on the wire), plus the
    // admission round trip of a cancel request.
    let server = ServerChild::spawn(julienne, &spec.server_args(&input.file))?;
    let fixed = Duration::from_secs_f64(seconds * 0.3);
    let mut served_mix = Mix::new(spec, &input.structure, seed, 1);
    let s = t.time("server", "open-loop step", || {
        bench::served(
            spec,
            &server,
            &store,
            &mut served_mix,
            &warm,
            seed,
            (fixed, Duration::ZERO),
            &mut chk,
        )
    });
    let rtt = Client::connect(&server.addr)
        .map_err(|e| e.to_string())
        .map(|mut c| {
            (0..200)
                .map(|k| {
                    let req =
                        Json::Obj(vec![("cancel".into(), Json::Str(format!("rtt-probe-{k}")))]);
                    t.time("server", "Client::roundtrip(cancel)", || {
                        c.roundtrip(&req).is_ok()
                    })
                    .1
                })
                .collect::<Vec<f64>>()
        });
    server.shutdown();
    let s = s.0?;
    let rtt = rtt?;
    r.metric("server.wire_rtt_us", median(&rtt) * 1e6, "us");
    let reads: Vec<&bench::Reply> = s.replies.iter().filter(|r| r.is_read).collect();
    let share = |n: usize, of: usize| ratio(n as f64, of as f64);
    let cached = reads.iter().filter(|r| r.cached).count();
    r.metric("core.cache.hit_share", share(cached, reads.len()), "frac");
    r.metric(
        "server.cached_share",
        share(cached, s.replies.len()),
        "frac",
    );
    let batched = reads.iter().filter(|r| r.batched).count();
    r.metric("server.batched_share", share(batched, reads.len()), "frac");
    r.metric(
        "server.queue_wait_ms",
        queue_wait_ms(&s, &rounds.solo),
        "ms",
    );
    r.metric("bench.gen_lag_ms", median(&s.gen_lag) * 1e3, "ms");

    t.write(&work.join(format!("spans-{}-seed{seed}.json", spec.id)))?;
    r.attempted = chk.attempted;
    r.failed = chk.failed;
    r.notes.extend(chk.notes);
    Ok(r)
}

/// A direct Δ-stepping call, as the registry's `sssp` makes it.
fn weighted_direct<G: OutEdges<W = u32>>(t: &mut Tracer, g: &G, src: VertexId) -> f64 {
    t.median_of("algorithms", "delta_stepping::sssp", 3, || {
        black_box(
            delta_stepping::sssp(
                g,
                &SsspParams {
                    src,
                    delta: BATCH_DELTA,
                },
                &QueryCtx::default(),
            )
            .ok(),
        );
    })
}

/// Median over uncached reads of served latency minus the median direct
/// solve time of the same kind of read (its key without the source); zero
/// when every read was answered from the cache.
fn queue_wait_ms(s: &bench::Served, solo: &HashMap<String, f64>) -> f64 {
    let waits: Vec<f64> = s
        .replies
        .iter()
        .filter(|r| r.is_read && !r.cached && r.latency.is_finite())
        .filter_map(|r| solo.get(&kind_of(&r.key)).map(|d| r.latency - d))
        .collect();
    if waits.is_empty() {
        0.0
    } else {
        median(&waits) * 1e3
    }
}

/// A read's key without its source vertex.
fn kind_of(key: &str) -> String {
    key.split_whitespace()
        .filter(|p| !p.starts_with("src="))
        .collect::<Vec<_>>()
        .join(" ")
}
