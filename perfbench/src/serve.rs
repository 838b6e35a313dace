//! `serve_repeat`: closed-loop TCP clients against an in-process
//! `pf_serve::Server`, about half of the submissions repeating a recent
//! spec so the extraction cache is exercised.

use crate::circuits::{stratified_scales, Family, Rng};
use crate::drivers::probe;
use crate::report::Outcome;
use crate::stats::{median, percentile, ratio};
use crate::{ms, Layers, Opts, HARD_CAP, MIN_UNITS, SETUP_REPS};
use pf_core::{extract_kernels, ExtractConfig};
use pf_kcmatrix::network_digest;
use pf_network::sim::{equivalent_random, EquivConfig};
use pf_network::Network;
use pf_serve::json::{parse, Json};
use pf_serve::{request_lines, Server, ServiceConfig};
use pf_workloads::{generate, profile_by_name, scale_profile};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const FAMILY: Family = Family {
    profile: "dalu",
    scale_lo: 0.3,
    scale_hi: 0.9,
};
/// Candidate specs a seed draws before duplicates are dropped.
const CANDIDATES: usize = 100;
/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// A repeat names one of this many most recent submissions, so most
/// repeats find their result still in the service's cache.
const REPEAT_WINDOW: usize = 32;
/// Share of submissions that repeat an earlier spec.
const REPEAT_SHARE: f64 = 0.5;
/// Longest sequence a run can submit.
const MAX_JOBS: usize = 1 << 16;
/// A response slower than this counts as a failed (timed-out) job.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// The spec pool of a seed and the circuit each spec names. Specs are
/// `gen:dalu@<scale>` with the scale printed to four decimals, so the
/// text names the value exactly. The service generates every spec from
/// one fixed profile seed, so nearby scales can name the same circuit;
/// only the first spec of each distinct circuit is kept, and the pool
/// holds no two specs the content-addressed cache would treat as one.
fn spec_pool(seed: u64, n: usize, family: &Family) -> (Vec<String>, Vec<Network>) {
    let mut seen = std::collections::HashSet::new();
    stratified_scales(seed, n, family.scale_lo, family.scale_hi)
        .into_iter()
        .map(|s| format!("gen:{}@{:.4}", family.profile, s))
        .map(|spec| {
            let nw = input_for(&spec);
            (spec, nw)
        })
        .filter(|(_, nw)| seen.insert(network_digest(nw)))
        .unzip()
}

/// Spec index of every submission: a fresh spec (cycling through the
/// pool), or with probability [`REPEAT_SHARE`] a recent submission's.
fn job_sequence(seed: u64, pool: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x7e9e_a7ed_0000_0002);
    let mut seq: Vec<usize> = Vec::with_capacity(len);
    let mut fresh = 0usize;
    for k in 0..len {
        if k > 0 && rng.unit() < REPEAT_SHARE {
            let back = rng.below(k.min(REPEAT_WINDOW));
            seq.push(seq[k - 1 - back]);
        } else {
            seq.push(fresh % pool);
            fresh += 1;
        }
    }
    seq
}

/// The circuit the service builds for `spec`, built here independently
/// of the service's own resolver.
fn input_for(spec: &str) -> Network {
    let (name, scale) = spec
        .strip_prefix("gen:")
        .and_then(|s| s.split_once('@'))
        .expect("spec is gen:<profile>@<scale>");
    let scale: f64 = scale.parse().expect("spec scale is a number");
    generate(&scale_profile(
        &profile_by_name(name).expect("paper profile"),
        scale,
    ))
}

struct Running {
    addr: SocketAddr,
    handle: JoinHandle<()>,
}

fn start_server() -> Running {
    let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind 127.0.0.1:0");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run());
    let pong = request_lines(addr, &[r#"{"op":"ping"}"#.to_string()]).expect("ping the server");
    assert_eq!(pong.len(), 1, "server answers ping");
    Running { addr, handle }
}

fn stop_server(s: Running) {
    let _ = request_lines(s.addr, &[r#"{"op":"shutdown"}"#.to_string()]);
    s.handle.join().expect("server thread exits cleanly");
}

/// One submission as the client saw it.
struct Sample {
    k: usize,
    latency: Duration,
    response: Result<String, String>,
}

fn client(
    addr: SocketAddr,
    specs: &[String],
    seq: &[usize],
    next: &AtomicUsize,
    done: &AtomicUsize,
    stop: &AtomicBool,
    until: impl Fn(usize) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            stop.store(true, Ordering::SeqCst);
            let k = next.fetch_add(1, Ordering::SeqCst);
            samples.push(Sample {
                k,
                latency: Duration::ZERO,
                response: Err(format!("connect: {e}")),
            });
            return samples;
        }
    };
    stream
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .expect("set a read timeout");
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().expect("clone the client stream");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    while !stop.load(Ordering::SeqCst) {
        let k = next.fetch_add(1, Ordering::SeqCst);
        if k >= seq.len() {
            break;
        }
        let request = format!(
            "{{\"op\":\"submit\",\"algorithm\":\"seq\",\"workload\":\"{}\"}}\n",
            specs[seq[k]]
        );
        line.clear();
        let t = Instant::now();
        let sent = writer
            .write_all(request.as_bytes())
            .and_then(|_| writer.flush());
        let got = sent.and_then(|_| reader.read_line(&mut line));
        let latency = t.elapsed();
        let response = match got {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("i/o: {e}")),
        };
        let broken = response.is_err();
        samples.push(Sample {
            k,
            latency,
            response,
        });
        let n = done.fetch_add(1, Ordering::SeqCst) + 1;
        if broken || until(n) {
            stop.store(true, Ordering::SeqCst);
        }
    }
    samples
}

/// What a completed response reported.
struct Reply {
    lc_before: usize,
    lc_after: usize,
    queue_wait_ms: f64,
    run_ms: f64,
    phases: Vec<(String, f64)>,
}

fn reply(text: &str) -> Result<Reply, String> {
    let v = parse(text).map_err(|e| format!("bad response JSON: {e}"))?;
    let status = v.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "completed" {
        return Err(format!("status {status}: {text}"));
    }
    let m = v
        .get("metrics")
        .ok_or("completed response without metrics")?;
    let num = |k: &str| {
        m.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("response lacks {k}"))
    };
    let phases = match m.get("phases") {
        Some(Json::Obj(p)) => p
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().unwrap_or(0) as f64 / 1e3))
            .collect(),
        _ => Vec::new(),
    };
    Ok(Reply {
        lc_before: num("lc_before")? as usize,
        lc_after: num("lc_after")? as usize,
        queue_wait_ms: num("queue_wait_us")? as f64 / 1e3,
        run_ms: num("run_us")? as f64 / 1e3,
        phases,
    })
}

pub fn run(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let family = opts.scaled(FAMILY);

    // Set-up: the spec pool, its circuits (for the output checks) and a
    // running server, several times; the last set-up is kept.
    let mut setup = Vec::new();
    let mut generate_ms = Vec::new();
    let mut built: Option<(Vec<String>, Vec<Network>, Running)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, _, s)) = built.take() {
            stop_server(s);
        }
        let t = Instant::now();
        let candidates = opts.circuits.unwrap_or(CANDIDATES);
        let (specs, inputs) = spec_pool(opts.seed, candidates, &family);
        generate_ms.push(ms(t.elapsed()) / candidates as f64);
        let server = start_server();
        setup.push(t.elapsed().as_secs_f64());
        built = Some((specs, inputs, server));
    }
    let (specs, inputs, server) = built.expect("at least one set-up rep");
    let pool = specs.len();
    let seq = job_sequence(opts.seed, pool, MAX_JOBS);
    out.note("inputs_digest", crate::circuits::set_digest(&inputs));
    out.note("circuits", pool);
    out.note(
        "family",
        format!(
            "{}@{}..{}",
            family.profile, family.scale_lo, family.scale_hi
        ),
    );
    out.note(
        "threads",
        format!(
            "{CLIENTS} client connections, {} service workers",
            ServiceConfig::default().workers
        ),
    );

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let loop_start = Instant::now();
    let until = |n: usize| {
        let t = loop_start.elapsed();
        (t.as_secs_f64() >= opts.seconds && n >= MIN_UNITS) || t >= HARD_CAP
    };
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client(server.addr, &specs, &seq, &next, &done, &stop, until)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = loop_start.elapsed().as_secs_f64();
    stop_server(server);
    samples.sort_by_key(|s| s.k);
    out.note("units", samples.len());

    // Checks, outside the timed loop: every response completed, and its
    // literal counts match the input and an independent local run whose
    // output is checked for equivalence.
    let mut layers = Layers::default();
    let mut expected: HashMap<usize, Result<(usize, usize), String>> = HashMap::new();
    let mut first: HashMap<usize, usize> = HashMap::new();
    let (mut lits, mut lc_before, mut lc_after) = (0usize, 0usize, 0usize);
    let mut latencies = Vec::new();
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    let (mut queue, mut run, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
    for s in &samples {
        let spec = seq[s.k];
        let lat = ms(s.latency);
        latencies.push(lat);
        let checked = s
            .response
            .clone()
            .and_then(|text| reply(&text))
            .and_then(|r| {
                let want = expected
                    .entry(spec)
                    .or_insert_with(|| {
                        let input = &inputs[spec];
                        let mut local = input.clone();
                        let rep = extract_kernels(&mut local, &[], &ExtractConfig::default());
                        let t = Instant::now();
                        let eq = equivalent_random(input, &local, &EquivConfig::default());
                        layers.probe("network.equiv", ms(t.elapsed()));
                        if opts.trace {
                            probe(&mut layers, input, &ExtractConfig::default());
                        }
                        match eq {
                            Ok(true) => Ok((rep.lc_before, rep.lc_after)),
                            _ => Err(format!(
                                "local reference for {} is not equivalent",
                                specs[spec]
                            )),
                        }
                    })
                    .clone()?;
                if (r.lc_before, r.lc_after) != want {
                    return Err(format!(
                        "{}: served {}→{}, reference {}→{}",
                        specs[spec], r.lc_before, r.lc_after, want.0, want.1
                    ));
                }
                let cold = *first.entry(spec).or_insert(r.lc_after);
                if cold != r.lc_after {
                    return Err(format!(
                        "{}: repeat lc {} vs cold {}",
                        specs[spec], r.lc_after, cold
                    ));
                }
                Ok(r)
            });
        let r = match checked {
            Ok(r) => r,
            Err(e) => {
                out.count(Some(format!("job {}: {e}", s.k)));
                continue;
            }
        };
        out.count(None);
        lits += r.lc_before;
        if s.k < MIN_UNITS {
            lc_before += r.lc_before;
            lc_after += r.lc_after;
        }
        let phase = |name: &str| {
            r.phases
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .sum::<f64>()
        };
        let hit = r.phases.iter().any(|(n, _)| n == "cache");
        (if hit { &mut hits } else { &mut misses }).push(lat);
        // Every completed job's client latency is split into layers from
        // the server-side timings its response carries.
        queue.push(r.queue_wait_ms);
        run.push(r.run_ms);
        overhead.push(lat - r.queue_wait_ms - r.run_ms);
        layers.timed("serve.queue_wait", r.queue_wait_ms);
        layers.timed("serve.overhead", lat - r.queue_wait_ms - r.run_ms);
        layers.timed("cache.replay", phase("cache"));
        layers.timed("core.matrix", phase("matrix"));
        layers.timed("core.cover", phase("pool") + phase("cover"));
        layers.wall(lat);
    }

    // Printed in both modes, so traced and untraced runs (and runs on
    // two commits) can be checked to have produced the same quality.
    out.note("lc_ratio", ratio(lc_after as f64, lc_before as f64));
    if !opts.trace {
        let p50 = percentile(&latencies, 0.5).ok_or("too few jobs for p50")?;
        let p90 = percentile(&latencies, 0.9).ok_or("too few jobs for p90")?;
        crate::put_end_to_end(
            out,
            median(&setup),
            p50,
            p90,
            lits as f64 / wall_s,
            ratio(lc_after as f64, lc_before as f64),
        );
        out.note("samples", latencies.len());
        out.note(
            "jobs_per_s",
            format!("{:.1}", samples.len() as f64 / wall_s),
        );
        return Ok(());
    }
    let mid = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    layers.generate_ms = median(&generate_ms);
    layers.extra(
        "cache.hit_ratio",
        ratio(hits.len() as f64, (hits.len() + misses.len()) as f64),
    );
    layers.extra("cache.hit_ms_p50", mid(&hits));
    layers.extra("cache.miss_ms_p50", mid(&misses));
    layers.extra("serve.queue_wait_ms_p50", mid(&queue));
    layers.extra("serve.run_ms_p50", mid(&run));
    layers.extra("serve.overhead_ms_p50", mid(&overhead));
    // The service has no tracer to arm: a traced run sends the same jobs
    // and only reads their responses, so `overhead` stays unmeasured.
    layers.finish(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn about_half_the_jobs_repeat_a_recent_spec() {
        let seq = job_sequence(9, 10_000, 2000);
        assert_eq!(seq, job_sequence(9, 10_000, 2000));
        let mut seen = std::collections::HashSet::new();
        let repeats = seq.iter().filter(|s| !seen.insert(**s)).count();
        assert!((800..1200).contains(&repeats), "{repeats} repeats");
    }
}
