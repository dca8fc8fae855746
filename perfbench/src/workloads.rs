//! The four workloads: their fixed settings, the seeded inputs each one
//! generates, and the seeded operation stream each one sends.

use crate::stats::{Rng, Zipf};
use julienne_graph::generators::{rmat, RmatParams};
use julienne_graph::io::{GraphIo, IoOptions};
use julienne_graph::packed::EdgeUpdate;
use julienne_graph::transform::{assign_weights, wbfs_weight_range};
use julienne_graph::{Graph, VertexId};
use julienne_server::json::Json;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Solver threads in-process and in the server, and client connections.
/// Both must stay within the host's cores (checked at start).
pub const THREADS: usize = 2;
pub const CONNECTIONS: usize = 2;

/// Edge factor of every generated R-MAT graph (the Graph500 default).
const EDGE_FACTOR: usize = 16;
/// The seeded source pool the serve-mix draws from, Zipf-style with
/// exponent `ZIPF_S`: popular sources repeat and hit the result cache,
/// while most draws miss it, so the median read is a solve.
const SOURCE_POOL: usize = 4096;
const ZIPF_S: f64 = 0.5;
/// Sources per `sssp-rmat18` run; each is checked against Dijkstra.
const BATCH_SOURCES: usize = 4;
/// Sources have at least this degree, which puts them in the giant
/// component, so every traversal covers about the same graph.
const SOURCE_MIN_DEGREE: usize = 16;
/// Result-cache budget of every server.
const CACHE: &str = "cache_bytes=67108864";
/// Δ of the batch Δ-stepping queries (the registry default) and of the
/// serve-mix Δ-stepping queries on `[1, log n)` weights.
pub const BATCH_DELTA: u64 = 32_768;
const MIX_DELTA: u64 = 8;
/// Edge updates per `mutate` request: inserts and deletes.
pub const WRITE_INSERTS: usize = 6;
pub const WRITE_DELETES: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    KcoreRmat18,
    SsspRmat18,
    ServeMix,
    ServeMutate,
}

/// Everything fixed about a workload.
pub struct Spec {
    pub name: Name,
    pub id: &'static str,
    pub scale: u32,
    /// `None` for unweighted graphs, else the weight range `[lo, hi)`.
    pub weights: Option<(u32, u32)>,
    /// `backend=` of the server and of the in-process store.
    pub backend: &'static str,
    /// Further `julienne serve` options.
    pub serve_args: &'static [&'static str],
    /// Open-loop rate of the fixed-rate step, requests per second.
    pub rate: f64,
    /// The `slo_qps` rate ladder, ascending.
    pub ladder: &'static [f64],
    /// Read latency limit at the tail percentile, milliseconds.
    pub limit_ms: f64,
}

pub fn spec(name: &str) -> Option<Spec> {
    let s = match name {
        "kcore-rmat18" => Spec {
            name: Name::KcoreRmat18,
            id: "kcore-rmat18",
            scale: 18,
            weights: None,
            backend: "csr",
            serve_args: &[CACHE],
            rate: 200.0,
            ladder: &[500.0, 1000.0, 2000.0, 4000.0],
            limit_ms: 20.0,
        },
        "sssp-rmat18" => Spec {
            name: Name::SsspRmat18,
            id: "sssp-rmat18",
            scale: 18,
            weights: Some((1, 100_000)),
            backend: "csr",
            serve_args: &[CACHE],
            rate: 200.0,
            ladder: &[500.0, 1000.0, 2000.0, 4000.0],
            limit_ms: 20.0,
        },
        "serve-mix" => Spec {
            name: Name::ServeMix,
            id: "serve-mix",
            scale: 16,
            weights: Some(wbfs_weight_range(1 << 16)),
            backend: "mapped",
            serve_args: &["batch_window_ms=2", CACHE],
            rate: 40.0,
            ladder: &[40.0, 50.0, 63.0, 79.0, 99.0, 124.0, 155.0, 194.0, 243.0],
            limit_ms: 250.0,
        },
        "serve-mutate" => Spec {
            name: Name::ServeMutate,
            id: "serve-mutate",
            scale: 16,
            weights: None,
            backend: "csr",
            serve_args: &["mutable=true", CACHE],
            rate: 10.0,
            ladder: &[10.0, 13.0, 16.0, 20.0, 25.0, 31.0, 39.0, 49.0, 61.0, 76.0],
            limit_ms: 250.0,
        },
        _ => return None,
    };
    Some(s)
}

pub const ALL: [&str; 4] = ["kcore-rmat18", "sssp-rmat18", "serve-mix", "serve-mutate"];

impl Spec {
    pub fn weighted(&self) -> bool {
        self.weights.is_some()
    }

    pub fn is_batch(&self) -> bool {
        matches!(self.name, Name::KcoreRmat18 | Name::SsspRmat18)
    }

    /// The `julienne serve` arguments for this workload's graph file.
    pub fn server_args(&self, file: &Path) -> Vec<String> {
        let mut a = vec![
            format!("in={}", file.display()),
            format!("weighted={}", self.weighted()),
            format!("backend={}", self.backend),
            format!("threads={THREADS}"),
        ];
        a.extend(self.serve_args.iter().map(|s| s.to_string()));
        a
    }
}

/// The generated input: the unweighted structure (kept for the write
/// model, oracles and probes) and the `.jgr` file the program reads.
pub struct Input {
    pub structure: Graph,
    pub file: PathBuf,
}

/// Generates the workload's graph from `seed` and writes it as `.jgr`.
pub fn generate(spec: &Spec, seed: u64, dir: &Path) -> Result<Input, String> {
    let graph_seed = Rng::new(seed, 1).next_u64();
    let g = rmat(
        spec.scale,
        EDGE_FACTOR,
        RmatParams::default(),
        graph_seed,
        true,
    );
    let file = dir.join(format!("{}.jgr", spec.id));
    let opts = IoOptions::default();
    let written = match spec.weights {
        None => GraphIo::write(&g, &file, &opts),
        Some((lo, hi)) => GraphIo::write(
            &assign_weights(&g, lo, hi, graph_seed ^ 0xF00D),
            &file,
            &opts,
        ),
    };
    written.map_err(|e| format!("writing {}: {e}", file.display()))?;
    Ok(Input { structure: g, file })
}

/// One operation of a workload's stream.
#[derive(Clone, Debug)]
pub enum Op {
    Read {
        algo: &'static str,
        params: Vec<(&'static str, String)>,
    },
    Write {
        insert: Vec<(VertexId, VertexId)>,
        delete: Vec<(VertexId, VertexId)>,
    },
}

impl Op {
    /// The cache/memo key of a read: algorithm plus its parameters.
    pub fn key(&self) -> String {
        match self {
            Op::Read { algo, params } => {
                let p: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
                format!("{algo} {}", p.join(" "))
            }
            Op::Write { .. } => "mutate".to_string(),
        }
    }

    /// The protocol line for this operation under request id `id`.
    pub fn line(&self, id: &str) -> String {
        match self {
            Op::Read { algo, params } => {
                let p: Vec<(&str, &str)> = params.iter().map(|(k, v)| (*k, v.as_str())).collect();
                julienne_server::query_request(id, algo, &p, None, false).to_json()
            }
            Op::Write { insert, delete } => {
                let pairs = |es: &[(VertexId, VertexId)]| {
                    Json::Arr(
                        es.iter()
                            .map(|&(u, v)| {
                                Json::Arr(vec![Json::Num(u.into()), Json::Num(v.into())])
                            })
                            .collect(),
                    )
                };
                Json::Obj(vec![
                    ("id".to_string(), Json::Str(id.to_string())),
                    (
                        "mutate".to_string(),
                        Json::Obj(vec![
                            ("insert".to_string(), pairs(insert)),
                            ("delete".to_string(), pairs(delete)),
                        ]),
                    ),
                ])
                .to_json()
            }
        }
    }
}

/// The seeded operation stream of one workload. Writes are drawn so that
/// no two batches of a run touch the same edge and every update takes
/// effect, so each batch adds exactly `2 * (inserts - deletes)` directed
/// edges whatever order the server applies them in.
pub struct Mix {
    name: Name,
    rng: Rng,
    sources: Vec<VertexId>,
    zipf: Zipf,
    /// Undirected edges (`u < v`) of the current model graph.
    edges: HashSet<(VertexId, VertexId)>,
    /// The initial graph's undirected edges, for drawing deletes.
    initial: Vec<(VertexId, VertexId)>,
    /// Edges some batch already inserted or deleted.
    touched: HashSet<(VertexId, VertexId)>,
    n: u32,
}

impl Mix {
    /// `stream` separates independent streams of one run (direct solves,
    /// open-loop steps) that must not share draws.
    pub fn new(spec: &Spec, g: &Graph, seed: u64, stream: u64) -> Mix {
        let pool = if spec.name == Name::SsspRmat18 {
            BATCH_SOURCES
        } else {
            SOURCE_POOL
        };
        let (edges, initial) = if spec.name == Name::ServeMutate {
            let edges = undirected_edges(g);
            let mut initial: Vec<_> = edges.iter().copied().collect();
            initial.sort_unstable();
            (edges, initial)
        } else {
            Default::default()
        };
        Mix {
            name: spec.name,
            rng: Rng::new(seed, 100 + stream),
            sources: source_pool(g, seed, pool),
            zipf: Zipf::new(pool, ZIPF_S),
            edges,
            initial,
            touched: HashSet::new(),
            n: g.num_vertices() as u32,
        }
    }

    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    pub fn next_op(&mut self) -> Op {
        let u = self.rng.unit();
        match self.name {
            Name::KcoreRmat18 => Op::Read {
                algo: "kcore",
                params: vec![],
            },
            Name::SsspRmat18 => {
                let src = self.sources[self.rng.below(self.sources.len() as u64) as usize];
                sssp(src, "delta", BATCH_DELTA)
            }
            Name::ServeMix => {
                let src = self.sources[self.zipf.sample(&mut self.rng)];
                if u < 0.45 {
                    sssp(src, "delta", MIX_DELTA)
                } else if u < 0.70 {
                    Op::Read {
                        algo: "sssp",
                        params: vec![("src", src.to_string()), ("algo", "wbfs".to_string())],
                    }
                } else if u < 0.85 {
                    Op::Read {
                        algo: "kcore",
                        params: vec![("top", "3".to_string())],
                    }
                } else {
                    let s = 1 + self.rng.below(4);
                    Op::Read {
                        algo: "setcover",
                        params: vec![
                            ("sets", "64".to_string()),
                            ("elements", "2000".to_string()),
                            ("seed", s.to_string()),
                        ],
                    }
                }
            }
            Name::ServeMutate => {
                if u < 0.4 {
                    Op::Read {
                        algo: "kcore",
                        params: vec![("top", "3".to_string())],
                    }
                } else if u < 2.0 / 3.0 {
                    Op::Read {
                        algo: "components",
                        params: vec![],
                    }
                } else {
                    self.next_write()
                }
            }
        }
    }

    fn next_write(&mut self) -> Op {
        let mut insert = Vec::with_capacity(WRITE_INSERTS);
        while insert.len() < WRITE_INSERTS {
            let a = self.rng.below(self.n as u64) as u32;
            let b = self.rng.below(self.n as u64) as u32;
            let e = (a.min(b), a.max(b));
            if a != b && !self.edges.contains(&e) && self.touched.insert(e) {
                self.edges.insert(e);
                insert.push(e);
            }
        }
        let mut delete = Vec::with_capacity(WRITE_DELETES);
        // Deletes pick uniformly among the initial edges no batch has
        // touched, which are exactly the initial edges still present.
        while delete.len() < WRITE_DELETES {
            let e = self.initial[self.rng.below(self.initial.len() as u64) as usize];
            if self.touched.insert(e) {
                self.edges.remove(&e);
                delete.push(e);
            }
        }
        Op::Write { insert, delete }
    }
}

fn sssp(src: VertexId, algo: &str, delta: u64) -> Op {
    Op::Read {
        algo: "sssp",
        params: vec![
            ("src", src.to_string()),
            ("algo", algo.to_string()),
            ("delta", delta.to_string()),
        ],
    }
}

/// `k` distinct seeded sources of degree at least [`SOURCE_MIN_DEGREE`].
fn source_pool(g: &Graph, seed: u64, k: usize) -> Vec<VertexId> {
    let mut rng = Rng::new(seed, 2);
    let n = g.num_vertices() as u64;
    let eligible = (0..n as VertexId)
        .filter(|&v| g.degree(v) >= SOURCE_MIN_DEGREE)
        .count();
    assert!(
        eligible >= k,
        "only {eligible} vertices have degree >= {SOURCE_MIN_DEGREE}"
    );
    let mut seen = HashSet::with_capacity(k);
    let mut out: Vec<VertexId> = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.below(n) as VertexId;
        if g.degree(v) >= SOURCE_MIN_DEGREE && seen.insert(v) {
            out.push(v);
        }
    }
    out
}

pub fn undirected_edges(g: &Graph) -> HashSet<(VertexId, VertexId)> {
    let mut set = HashSet::with_capacity(g.num_edges() / 2);
    for u in 0..g.num_vertices() as VertexId {
        for &v in g.neighbors(u) {
            if u < v {
                set.insert((u, v));
            }
        }
    }
    set
}

/// `k` write batches over `g`, drawn as `serve-mutate` draws them, for the
/// write-path probes of the traced run.
pub fn write_batches(g: &Graph, seed: u64, k: usize) -> Vec<Vec<EdgeUpdate>> {
    let spec = spec("serve-mutate").expect("serve-mutate is a workload");
    let mut mix = Mix::new(&spec, g, seed, 7);
    (0..k)
        .map(|_| match mix.next_write() {
            Op::Write { insert, delete } => insert
                .iter()
                .map(|&(u, v)| EdgeUpdate::insert(u, v))
                .chain(delete.iter().map(|&(u, v)| EdgeUpdate::delete(u, v)))
                .collect(),
            Op::Read { .. } => unreachable!("next_write draws writes"),
        })
        .collect()
}
