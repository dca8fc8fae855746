//! The open-loop load generator: sends a pre-computed schedule of
//! line-delimited JSON requests over a fixed set of connections, each at
//! its due time regardless of earlier replies, and records when every
//! reply arrived.

use crate::stats::{median, Step};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// One planned request: when it is due (offset from the step start) and
/// its protocol line, whose `"id"` must be `"r<index>"`.
#[derive(Clone, Debug)]
pub struct Planned {
    pub due: Duration,
    pub line: String,
}

/// What happened to one planned request.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// When it was due, from the step start.
    pub due: Duration,
    /// When its reply arrived, from the step start.
    pub answered: Option<Duration>,
    /// Reply time minus due time: the latency a user arriving on schedule
    /// sees, including any wait a late generator imposed.
    pub latency: Option<Duration>,
    /// How late the generator actually sent it (`None`: never sent).
    pub send_lag: Option<Duration>,
    /// The raw reply line, if one arrived before the drain deadline.
    pub reply: Option<String>,
}

/// The result of one open-loop step, in plan order.
pub struct StepResult {
    pub outcomes: Vec<Outcome>,
}

impl StepResult {
    /// Requests due by `at` (from the step start) but unanswered then.
    pub fn backlog_at(&self, at: Duration) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.due <= at && o.answered.is_none_or(|a| a > at))
            .count()
    }
}

/// The request id the generator stamps on planned request `i`.
pub fn request_id(i: usize) -> String {
    format!("r{i}")
}

/// Pulls the `"id"` string out of a reply line without a full parse.
fn reply_id(line: &str) -> Option<usize> {
    let rest = &line[line.find("\"id\":\"r")? + 7..];
    rest[..rest.find('"')?].parse().ok()
}

/// Runs one open-loop step against `addr` over `connections` sockets and
/// waits up to `drain` after the last due time until every request sent
/// has its reply.
///
/// When `abort_backlog` is set and more requests than that are unanswered,
/// the generator stops sending: the rest of the plan is never sent and
/// counts as unanswered, so an overloaded server cannot stretch the run.
pub fn run_step(
    addr: &str,
    plan: &[Planned],
    connections: usize,
    drain: Duration,
    abort_backlog: Option<usize>,
) -> std::io::Result<StepResult> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, String)>();
    let answered = Arc::new(AtomicUsize::new(0));
    let mut writers = Vec::with_capacity(connections);
    let mut readers = Vec::with_capacity(connections);
    for _ in 0..connections {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        let tx = tx.clone();
        let answered = Arc::clone(&answered);
        readers.push(thread::spawn(move || read_replies(reader, tx, &answered)));
        writers.push(stream);
    }
    drop(tx);

    let start = Instant::now();
    let mut sent_at = Vec::with_capacity(plan.len());
    let mut last_due = start + plan.last().map_or(Duration::ZERO, |p| p.due);
    for (i, p) in plan.iter().enumerate() {
        if abort_backlog.is_some_and(|cap| i - answered.load(Ordering::Relaxed) > cap) {
            last_due = Instant::now();
            break;
        }
        let due = start + p.due;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let w = &mut writers[i % connections];
        writeln!(w, "{}", p.line)?;
        sent_at.push(Instant::now());
    }

    let mut replies: HashMap<usize, (Instant, String)> = HashMap::with_capacity(plan.len());
    let deadline = last_due.max(Instant::now()) + drain;
    while replies.len() < sent_at.len() {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        match rx.recv_timeout(deadline - now) {
            Ok((i, at, line)) => {
                replies.insert(i, (at, line));
            }
            Err(_) => break,
        }
    }
    for w in &writers {
        let _ = w.shutdown(Shutdown::Both);
    }
    for r in readers {
        r.join().expect("reply reader panicked");
    }

    let outcomes = plan
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let due = start + p.due;
            let reply = replies.remove(&i);
            Outcome {
                due: p.due,
                answered: reply.as_ref().map(|(at, _)| at.duration_since(start)),
                latency: reply.as_ref().map(|(at, _)| at.duration_since(due)),
                send_lag: sent_at.get(i).map(|s| s.duration_since(due)),
                reply: reply.map(|(_, line)| line),
            }
        })
        .collect();
    Ok(StepResult { outcomes })
}

/// Runs the ladder staircase (see [`crate::stats::staircase`]), giving up
/// on sending once the backlog is four times what the top rate may hold,
/// and waiting up to `drain` for the replies of everything sent.
pub fn run_ladder(
    addr: &str,
    plan: &[Planned],
    top_rate: f64,
    limit: f64,
    connections: usize,
    drain: Duration,
) -> std::io::Result<StepResult> {
    let abort = 4 * ((top_rate * limit).ceil() as usize + 2);
    run_step(addr, plan, connections, drain, Some(abort))
}

/// Judges each ladder step: `plan[i]` belongs to step `step_of[i]`, and
/// `read_latency[i]` is its read latency in seconds (infinite for a miss)
/// or `None` for a request that is not a read. A step's rate is the one
/// its Poisson draw actually offered, requests per second.
pub fn judge_ladder(
    rates: &[f64],
    step: Duration,
    res: &StepResult,
    step_of: &[usize],
    read_latency: &[Option<f64>],
) -> Vec<Step> {
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); rates.len()];
    let mut arrivals = vec![0usize; rates.len()];
    for (&k, l) in step_of.iter().zip(read_latency) {
        arrivals[k] += 1;
        if let Some(l) = l {
            lat[k].push(*l);
        }
    }
    (0..rates.len())
        .map(|k| Step {
            rate: arrivals[k] as f64 / step.as_secs_f64(),
            latency: if lat[k].is_empty() {
                f64::INFINITY
            } else {
                median(&lat[k])
            },
            backlog: res.backlog_at(step * (k as u32 + 1)),
        })
        .collect()
}

/// Reads reply lines, stamping each with the arrival of its *first* byte.
///
/// The server writes a reply's JSON and its trailing newline in two writes
/// on a socket with Nagle's algorithm on, so the newline can sit in the
/// server's kernel until this side acknowledges the first segment (up to
/// the delayed-ACK timeout, about 40 ms). Stamping the first byte keeps
/// that transport stall out of the latency the open loop reports; it is
/// measured on its own as the full round trip `server.wire_rtt_us`.
fn read_replies(
    mut stream: TcpStream,
    tx: mpsc::Sender<(usize, Instant, String)>,
    answered: &AtomicUsize,
) {
    let mut buf = [0u8; 1 << 16];
    let mut line: Vec<u8> = Vec::new();
    let mut first: Option<Instant> = None;
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        let at = Instant::now();
        for &b in &buf[..n] {
            if b != b'\n' {
                first.get_or_insert(at);
                line.push(b);
                continue;
            }
            let text = String::from_utf8_lossy(&line).trim_end().to_string();
            if let (Some(i), Some(t)) = (reply_id(&text), first) {
                answered.fetch_add(1, Ordering::Relaxed);
                if tx.send((i, t, text)).is_err() {
                    return;
                }
            }
            line.clear();
            first = None;
        }
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::stats::{slo_rate, staircase, Rng};
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A stub server that answers every request line, in order, after a
    /// fixed service delay — one request at a time, so it saturates at
    /// `1 / delay` requests per second.
    pub fn stub_server(delay: Duration) -> (String, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = thread::spawn(move || {
            let (tx, rx) = mpsc::channel::<(TcpStream, String)>();
            let worker = thread::spawn(move || {
                for (mut s, line) in rx {
                    thread::sleep(delay);
                    let id = line.split('"').nth(3).unwrap_or("").to_string();
                    let _ = writeln!(s, "{{\"id\":\"{id}\",\"ok\":true,\"output\":\"x\"}}");
                }
            });
            // Stops after the test's connections close and a sentinel
            // connection arrives with nothing on it.
            let mut conns = Vec::new();
            for stream in listener.incoming() {
                let stream = stream.unwrap();
                let tx = tx.clone();
                let out = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut first = String::new();
                if reader.read_line(&mut first).unwrap_or(0) == 0 {
                    break;
                }
                tx.send((out.try_clone().unwrap(), first.trim().to_string()))
                    .unwrap();
                conns.push(thread::spawn(move || {
                    let mut line = String::new();
                    loop {
                        line.clear();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => return,
                            Ok(_) => {
                                let _ =
                                    tx.send((out.try_clone().unwrap(), line.trim().to_string()));
                            }
                        }
                    }
                }));
            }
            drop(tx);
            for c in conns {
                c.join().unwrap();
            }
            worker.join().unwrap();
        });
        (addr, handle)
    }

    #[test]
    fn ladder_search_finds_the_stub_capacity() {
        let delay = Duration::from_millis(10);
        let (addr, server) = stub_server(delay);
        let limit = 0.05;
        let rates = [20.0, 40.0, 80.0, 160.0, 320.0];
        let step = Duration::from_millis(600);
        let stairs = staircase(&mut Rng::new(5, 9), &rates, step);
        let plan: Vec<Planned> = stairs
            .iter()
            .enumerate()
            .map(|(i, &(_, due))| Planned {
                due,
                line: format!("{{\"id\":\"{}\",\"algo\":\"x\"}}", request_id(i)),
            })
            .collect();
        let step_of: Vec<usize> = stairs.iter().map(|&(k, _)| k).collect();
        let res = run_ladder(&addr, &plan, 320.0, limit, 2, Duration::from_secs(5)).unwrap();
        let lat: Vec<Option<f64>> = res
            .outcomes
            .iter()
            .map(|o| Some(o.latency.map_or(f64::INFINITY, |d| d.as_secs_f64())))
            .collect();
        let steps = judge_ladder(&rates, step, &res, &step_of, &lat);
        // Stop the stub: a connection that sends nothing ends its accept loop.
        drop(TcpStream::connect(&addr).unwrap());
        server.join().unwrap();
        // The stub serves 100/s: 20/s and 40/s pass, 160/s cannot.
        assert!(
            steps[0].passes(limit) && steps[1].passes(limit),
            "{steps:?}"
        );
        assert!(!steps[3].passes(limit), "{steps:?}");
        let slo = slo_rate(&steps, limit);
        assert!(
            (40.0..=100.0 / 0.9).contains(&slo),
            "slo {slo} from {steps:?}"
        );
    }

    #[test]
    fn reply_ids_parse() {
        assert_eq!(reply_id("{\"id\":\"r17\",\"ok\":true}"), Some(17));
        assert_eq!(reply_id("{\"cancel\":\"x\"}"), None);
    }
}
