//! Engine-knob invisibility: the open-bucket window `nB`, the edge-map
//! mode, and the dense-threshold divisor change *how* a bucketed algorithm
//! reaches its answer, never *what* it computes. Every knob setting must
//! leave outputs **bit-identical** to the default engine — same distances,
//! same coreness/trussness, same round counts — on both the CSR and
//! compressed backends, at 1 and 4 worker threads, for multi-source lanes,
//! and under schedule chaos.

mod common;

use common::{at, small_graphs};
use julienne_repro::algorithms::delta_stepping::{sssp, SsspParams};
use julienne_repro::algorithms::kcore::{coreness, KcoreParams};
use julienne_repro::algorithms::ktruss::{ktruss, KtrussParams};
use julienne_repro::algorithms::multi_source::{sssp_multi, SsspLane};
use julienne_repro::core::prelude::{Engine, QueryCtx};
use julienne_repro::graph::compress::{CompressedGraph, CompressedWGraph};
use julienne_repro::graph::transform::{assign_weights, wbfs_weight_range};
use julienne_repro::ligra::Mode;
use std::sync::Mutex;

/// Non-default engine settings, each paired with a label for failures.
fn knobs() -> Vec<(&'static str, Engine)> {
    vec![
        ("nB=1", Engine::builder().open_buckets(1).build()),
        ("nB=7", Engine::builder().open_buckets(7).build()),
        ("nB=4096", Engine::builder().open_buckets(4096).build()),
        ("mode=sparse", Engine::builder().mode(Mode::Sparse).build()),
        (
            "dense_div=1",
            Engine::builder().dense_threshold_div(1).build(),
        ),
        (
            "dense_div=1000",
            Engine::builder().dense_threshold_div(1_000).build(),
        ),
    ]
}

const THREADS: [usize; 2] = [1, 4];

#[test]
fn sssp_knobs_identical_on_csr_and_compressed() {
    for heavy in [false, true] {
        let (lo, hi) = if heavy {
            (1, 100_000)
        } else {
            wbfs_weight_range(2_048)
        };
        let delta = if heavy { 4_096 } else { 1 };
        for (name, g) in small_graphs() {
            let g = assign_weights(&g, lo, hi, 21);
            let cg = CompressedWGraph::from_csr(&g);
            let params = SsspParams { src: 0, delta };
            for threads in THREADS {
                let base = at(threads, || sssp(&g, &params, &QueryCtx::default()).unwrap());
                for (knob, engine) in knobs() {
                    let ctx = QueryCtx::from_engine(&engine);
                    let f = at(threads, || sssp(&g, &params, &ctx).unwrap());
                    assert_eq!(base.dist, f.dist, "{name} csr t={threads} {knob}");
                    assert_eq!(base.rounds, f.rounds, "{name} csr t={threads} {knob}");
                    assert_eq!(
                        base.relaxations, f.relaxations,
                        "{name} csr t={threads} {knob}"
                    );
                    let c = at(threads, || sssp(&cg, &params, &ctx).unwrap());
                    assert_eq!(base.dist, c.dist, "{name} compressed t={threads} {knob}");
                    assert_eq!(
                        base.rounds, c.rounds,
                        "{name} compressed t={threads} {knob}"
                    );
                }
            }
        }
    }
}

#[test]
fn peeling_knobs_identical_on_csr_and_compressed() {
    for (name, g) in small_graphs() {
        let cg = CompressedGraph::from_csr(&g);
        for threads in THREADS {
            let kc = at(threads, || {
                coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap()
            });
            let kt = at(threads, || {
                ktruss(&g, &KtrussParams::default(), &QueryCtx::default()).unwrap()
            });
            for (knob, engine) in knobs() {
                let ctx = QueryCtx::from_engine(&engine);
                let fkc = at(threads, || {
                    coreness(&g, &KcoreParams::default(), &ctx).unwrap()
                });
                assert_eq!(kc.coreness, fkc.coreness, "kcore {name} t={threads} {knob}");
                assert_eq!(kc.rounds, fkc.rounds, "kcore {name} t={threads} {knob}");
                let ckc = at(threads, || {
                    coreness(&cg, &KcoreParams::default(), &ctx).unwrap()
                });
                assert_eq!(
                    kc.coreness, ckc.coreness,
                    "kcore {name} compressed t={threads} {knob}"
                );
                let fkt = at(threads, || {
                    ktruss(&g, &KtrussParams::default(), &ctx).unwrap()
                });
                assert_eq!(
                    kt.trussness, fkt.trussness,
                    "ktruss {name} t={threads} {knob}"
                );
                assert_eq!(kt.rounds, fkt.rounds, "ktruss {name} t={threads} {knob}");
                let ckt = at(threads, || {
                    ktruss(&cg, &KtrussParams::default(), &ctx).unwrap()
                });
                assert_eq!(
                    kt.trussness, ckt.trussness,
                    "ktruss {name} compressed t={threads} {knob}"
                );
            }
        }
    }
}

#[test]
fn multi_source_lanes_identical_across_knobs() {
    for (name, g) in small_graphs() {
        let g = assign_weights(&g, 1, 100_000, 21);
        let delta = 4_096;
        let srcs = [0u32, 1, 5, 17];
        let solo: Vec<_> = srcs
            .iter()
            .map(|&src| sssp(&g, &SsspParams { src, delta }, &QueryCtx::default()).unwrap())
            .collect();
        for (knob, engine) in knobs() {
            for threads in THREADS {
                let ctx = QueryCtx::from_engine(&engine);
                let lanes: Vec<SsspLane> = srcs
                    .iter()
                    .map(|&src| SsspLane { src, ctx: &ctx })
                    .collect();
                let batched = at(threads, || sssp_multi(&g, delta, &lanes).unwrap());
                for (l, r) in batched.into_iter().enumerate() {
                    let r = r.unwrap();
                    assert_eq!(solo[l].dist, r.dist, "{name} lane {l} t={threads} {knob}");
                    assert_eq!(
                        solo[l].rounds, r.rounds,
                        "{name} lane {l} t={threads} {knob}"
                    );
                }
            }
        }
    }
}

/// Chaos mode is process-global; serialize the chaos windows.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn knobs_identical_to_default_under_schedule_chaos() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    rayon::set_chaos_seed(None);
    for (name, g) in small_graphs() {
        let wg = assign_weights(&g, 1, 100_000, 21);
        let params = SsspParams {
            src: 0,
            delta: 4_096,
        };
        let base_sssp = at(4, || sssp(&wg, &params, &QueryCtx::default()).unwrap());
        let base_core = at(4, || {
            coreness(&g, &KcoreParams::default(), &QueryCtx::default()).unwrap()
        });
        for seed in [1u64, 0x5EED, 0xDEAD_BEEF] {
            for threads in [2usize, 4] {
                for (knob, engine) in knobs() {
                    let ctx = QueryCtx::from_engine(&engine);
                    rayon::set_chaos_seed(Some(seed));
                    let f = at(threads, || sssp(&wg, &params, &ctx).unwrap());
                    let c = at(threads, || {
                        coreness(&g, &KcoreParams::default(), &ctx).unwrap()
                    });
                    rayon::set_chaos_seed(None);
                    assert!(
                        base_sssp.dist == f.dist && base_sssp.rounds == f.rounds,
                        "sssp/{name} diverged under {knob} chaos; reproduce: \
                         JULIENNE_CHAOS_SEED={seed} JULIENNE_NUM_THREADS={threads} \
                         cargo test --test integration_engine_knobs"
                    );
                    assert!(
                        base_core.coreness == c.coreness && base_core.rounds == c.rounds,
                        "kcore/{name} diverged under {knob} chaos; reproduce: \
                         JULIENNE_CHAOS_SEED={seed} JULIENNE_NUM_THREADS={threads} \
                         cargo test --test integration_engine_knobs"
                    );
                }
            }
        }
    }
}
