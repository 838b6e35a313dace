//! `parafactor` — command-line front end, in the spirit of `sis`'s
//! batch mode.
//!
//! ```text
//! parafactor [OPTIONS] <INPUT>
//! parafactor serve  [--addr A] [--workers N] [--queue N] [--max-procs N]
//!                   [--max-conns N] [--idle-timeout-ms N]
//!                   [--cache-entries N] [--cache-ttl-secs N]
//!                   [--fault-plan SPEC] [--fault-seed N] [--worker]
//! parafactor submit [--addr A] [-a ALG] [-p N] [--par-threads N]
//!                   [--batch-rects K] [--deadline-ms N]
//!                   [--retries N] [--delta-from BASE] <WORKLOAD>
//! parafactor dist   [--workers N | --peers A,B,…] [--parts N]
//!                   [--no-recovery] [--recovery-shards N]
//!                   [--lease-timeout-ms N]
//!                   [--fault-plan SPEC] [--fault-seed N] <WORKLOAD>
//! parafactor bench-json [--quick] [--out FILE]
//!                   [--assert-pooled-overhead PCT]
//!                   [--assert-pass-reduction PCT]
//!                   [--assert-cache-identical]
//!                   [--partition] [--scales F,F,…]
//!                   [--assert-gap-closed PCT]
//!                   [--assert-recovery-share PCT]
//! parafactor profile [-a ALG] [-p N] [--par-threads N] [--batch-rects K]
//!                   [--seed N] [-o FILE] <INPUT>
//!
//! INPUT                 circuit file (.blif, or the native text format),
//!                       or gen:<profile>[@scale] for a synthetic circuit
//!                       (profiles: misex3 dalu des seq spla ex1010)
//! -a, --algorithm ALG   seq | replicated | independent | lshaped |
//!                       lshaped-seq | lshaped-cx | iterative | script
//!                       [default: seq]
//! -p, --procs N         processors / partitions            [default: 4]
//!     --par-threads N   intra-matrix search threads per worker; 0 keeps
//!                       the classic sequential search      [default: 0]
//!     --batch-rects K   rectangles collected per search pass; conflict-
//!                       free subsets are applied in one batch. 1 keeps
//!                       the classic one-per-pass engine    [default: 1]
//! -o, --output FILE     write the optimized circuit (format by extension:
//!                       .blif or anything else = native text)
//!     --objective OBJ   area | timing | power               [default: area]
//!     --cx              run common-cube extraction after kernels
//!     --seed N          workload generator seed override
//!     --stats           print the full statistics block
//!     --verify          check functional equivalence after optimizing
//! -h, --help            this text
//!
//! serve runs the resident factorization service (JSON lines over TCP,
//! default 127.0.0.1:7878; protocol in docs/SERVICE.md). --max-conns caps
//! concurrent connections, --idle-timeout-ms closes silent connections
//! (0 disables), and --fault-plan injects deterministic faults for chaos
//! testing (grammar: SITE=KIND[@PROB][#MAX][;...], KIND = panic | cancel |
//! latency:MS | drop | dup | stall:MS — see docs/SERVICE.md). --worker
//! additionally answers the distributed driver's `sub` op (leased
//! sub-jobs; raises the line cap to fit network snapshots). submit sends
//! one job to a running service and prints the JSON response;
//! queue-full and overloaded rejections, and transient connect/read
//! errors, are retried up to --retries times with exponential backoff.
//! For both commands procs must be >= 1 and is capped at the host's
//! available parallelism; --par-threads is likewise capped (0 stays 0).
//! --cache-entries sizes the service's content-addressed result cache
//! (0 disables it; default 64) and --cache-ttl-secs expires entries
//! (0 = never, the default); an exact resubmission replays the memoized
//! result byte-for-byte. submit --delta-from BASE marks the job as a
//! delta against the fingerprint of a previously completed seq job
//! (e.g. seq/gen:misex3@0.25): the service re-extracts only the cones
//! whose functions changed and splices the rest from the cached base
//! (details in docs/SERVICE.md "Caching & delta-submit"). bench-json
//! measures the rectangle-search engines (call-scoped and resident pool) and
//! the four drivers end to end and writes BENCH_rect.json (--quick
//! shrinks scales/reps for CI; --assert-pooled-overhead PCT exits
//! non-zero when the pooled one-thread median exceeds the sequential
//! engine's by more than PCT percent, skipped with a warning on a
//! single-core host; --assert-pass-reduction PCT exits non-zero when
//! batching at K=16 cuts the seq driver's pass count by less than PCT
//! percent; --assert-cache-identical exits non-zero unless the warm
//! cache-served network is byte-identical to
//! the cold run's). bench-json --partition instead measures distributed
//! partition extraction and writes BENCH_partition.json: per workload
//! scale (--scales, default 0.5,2,4) the sequential oracle's literal
//! count against the recovery-off (Algorithm-I quality) and recovery-on
//! distributed runs at 1/2/4 workers; --assert-gap-closed PCT exits
//! non-zero when boundary recovery closes less than PCT percent of the
//! partition literal gap (scales below 2), and --assert-recovery-share
//! PCT exits non-zero when the recovery stage (frontier + resub +
//! sweep) takes more than PCT percent of the recovered wall at any
//! scale >= 2.
//! dist runs fault-tolerant distributed partition extraction from this
//! process as the coordinator: the workload is partitioned, each part is
//! dispatched as a leased sub-job to in-process workers (--workers) or
//! to remote --peers running `serve --worker`, expired leases fail over
//! with jittered backoff, and a sharded boundary-recovery stage
//! re-extracts the rectangles the partition cut and resubstitutes the
//! recovered divisors (skipped by --no-recovery; --recovery-shards caps
//! the recovery units, 0 = one per worker and 1 = the legacy serial
//! pass; if a recovery shard exhausts its retries the result degrades
//! to the quality already merged and the report says so). Prints the
//! same JSON the
//! `dist` op answers, including the lease ledger (docs/SERVICE.md
//! "Distributed extraction").
//! profile runs one extraction with span tracing armed and writes the
//! timeline as Chrome Trace Event Format JSON — load it in
//! chrome://tracing or Perfetto — to stdout or -o FILE (span vocabulary
//! in docs/OBSERVABILITY.md; a run summary goes to stderr).
//! ```

use parafactor::core::script::{run_script, ScriptConfig};
use parafactor::core::FaultPlan;
use parafactor::core::{
    extract_common_cubes, extract_kernels, independent_extract, iterative_extract, lshaped_extract,
    lshaped_extract_cubes, replicated_extract, CubeExtractConfig, ExtractConfig, IndependentConfig,
    IterativeConfig, LShapedConfig, LShapedCxConfig, Objective, ReplicatedConfig, Trace, Tracer,
};
use parafactor::network::blif::{read_blif, write_blif};
use parafactor::network::io::{read_network, write_network};
use parafactor::network::sim::{equivalent_random, EquivConfig};
use parafactor::network::{stats, Network};
use parafactor::serve::{
    default_max_procs, request_lines_with_retry, validate_procs, Json, RetryPolicy, Server,
    ServerConfig, ServiceConfig,
};
use parafactor::workloads::{generate, profile_by_name, scale_profile};
use std::process::ExitCode;

struct Options {
    input: String,
    algorithm: String,
    procs: usize,
    par_threads: usize,
    batch_rects: usize,
    output: Option<String>,
    objective: String,
    run_cx: bool,
    seed: Option<u64>,
    show_stats: bool,
    verify: bool,
}

fn usage() -> ! {
    // The doc comment above is the single source of truth.
    let text = include_str!("parafactor.rs");
    for line in text.lines().skip(3) {
        let Some(stripped) = line.strip_prefix("//!") else {
            break;
        };
        if stripped.trim() == "```text" || stripped.trim() == "```" {
            continue;
        }
        println!("{}", stripped.strip_prefix(' ').unwrap_or(stripped));
    }
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        input: String::new(),
        algorithm: "seq".into(),
        procs: 4,
        par_threads: 0,
        batch_rects: 1,
        output: None,
        objective: "area".into(),
        run_cx: false,
        seed: None,
        show_stats: false,
        verify: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut need = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "-a" | "--algorithm" => opts.algorithm = need("--algorithm"),
            "-p" | "--procs" => {
                opts.procs = need("--procs").parse().unwrap_or_else(|_| {
                    eprintln!("error: --procs must be a positive integer");
                    usage()
                })
            }
            "--par-threads" => {
                opts.par_threads = need("--par-threads").parse().unwrap_or_else(|_| {
                    eprintln!("error: --par-threads must be a non-negative integer");
                    usage()
                })
            }
            "--batch-rects" => {
                opts.batch_rects = need("--batch-rects")
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("error: --batch-rects must be a positive integer");
                        usage()
                    })
            }
            "-o" | "--output" => opts.output = Some(need("--output")),
            "--objective" => opts.objective = need("--objective"),
            "--cx" => opts.run_cx = true,
            "--seed" => {
                opts.seed = Some(need("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("error: --seed must be an integer");
                    usage()
                }))
            }
            "--stats" => opts.show_stats = true,
            "--verify" => opts.verify = true,
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => {
                eprintln!("error: unknown option {other}");
                usage()
            }
            other => {
                if !opts.input.is_empty() {
                    eprintln!("error: more than one input given");
                    usage()
                }
                opts.input = other.to_string();
            }
        }
    }
    if opts.input.is_empty() {
        eprintln!("error: no input");
        usage()
    }
    opts
}

fn load_circuit(opts: &Options) -> Result<Network, String> {
    if let Some(spec) = opts.input.strip_prefix("gen:") {
        let (name, scale) = match spec.split_once('@') {
            Some((n, s)) => (n, s.parse::<f64>().map_err(|_| format!("bad scale {s:?}"))?),
            None => (spec, 0.25),
        };
        let mut profile = profile_by_name(name)
            .ok_or_else(|| format!("unknown profile {name:?} (try dalu, seq, …)"))?;
        if let Some(seed) = opts.seed {
            profile.seed = seed;
        }
        return Ok(generate(&scale_profile(&profile, scale)));
    }
    let text = std::fs::read_to_string(&opts.input)
        .map_err(|e| format!("cannot read {}: {e}", opts.input))?;
    if opts.input.ends_with(".blif") {
        read_blif(&text).map_err(|e| e.to_string())
    } else {
        read_network(&text).map_err(|e| e.to_string())
    }
}

/// `parafactor serve`: bind the TCP front end and run until a client
/// sends a `shutdown` op.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut cfg = ServiceConfig::default();
    let mut server_cfg = ServerConfig::default();
    let mut fault_spec: Option<String> = None;
    let mut fault_seed = 0x5eed_u64;
    let mut i = 0;
    let bad = |msg: String| -> ExitCode {
        eprintln!("error: {msg}");
        ExitCode::FAILURE
    };
    while i < args.len() {
        let value = |i: usize| -> Option<&String> { args.get(i + 1) };
        match args[i].as_str() {
            "--addr" => match value(i) {
                Some(v) => addr = v.clone(),
                None => return bad("--addr needs a value".into()),
            },
            "--workers" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.workers = n,
                _ => return bad("--workers must be a positive integer".into()),
            },
            "--queue" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.queue_capacity = n,
                _ => return bad("--queue must be a positive integer".into()),
            },
            "--max-procs" => {
                let parsed = match value(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => n,
                    None => return bad("--max-procs must be an integer".into()),
                };
                match validate_procs(parsed, default_max_procs()) {
                    Ok(n) => cfg.max_procs = n,
                    Err(e) => return bad(format!("--max-procs: {e}")),
                }
            }
            "--max-conns" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => server_cfg.max_connections = n,
                _ => return bad("--max-conns must be a positive integer".into()),
            },
            "--idle-timeout-ms" => match value(i).and_then(|v| v.parse::<u64>().ok()) {
                Some(0) => server_cfg.idle_timeout = None,
                Some(n) => server_cfg.idle_timeout = Some(std::time::Duration::from_millis(n)),
                None => return bad("--idle-timeout-ms must be an integer (0 disables)".into()),
            },
            "--cache-entries" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => cfg.cache_entries = n,
                None => return bad("--cache-entries must be an integer (0 disables)".into()),
            },
            "--cache-ttl-secs" => match value(i).and_then(|v| v.parse::<u64>().ok()) {
                Some(0) => cfg.cache_ttl = None,
                Some(n) => cfg.cache_ttl = Some(std::time::Duration::from_secs(n)),
                None => return bad("--cache-ttl-secs must be an integer (0 = never)".into()),
            },
            "--fault-plan" => match value(i) {
                Some(v) => fault_spec = Some(v.clone()),
                None => return bad("--fault-plan needs a value".into()),
            },
            "--fault-seed" => match value(i).and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => fault_seed = n,
                None => return bad("--fault-seed must be an integer".into()),
            },
            "--worker" => {
                // Sub requests carry whole network snapshots, so worker
                // mode gets a roomier line cap.
                server_cfg.worker = true;
                server_cfg.max_line_bytes = server_cfg.max_line_bytes.max(8 << 20);
                i += 1;
                continue;
            }
            "-h" | "--help" => usage(),
            other => return bad(format!("unknown serve option {other:?}")),
        }
        i += 2;
    }
    if let Some(spec) = fault_spec {
        match FaultPlan::parse(&spec, fault_seed) {
            Ok(plan) => {
                eprintln!("pf-serve: FAULT INJECTION ACTIVE ({spec})");
                cfg.fault_plan = Some(std::sync::Arc::new(plan));
            }
            Err(e) => return bad(format!("--fault-plan: {e}")),
        }
    }
    let server = match Server::bind_with(addr.as_str(), cfg, server_cfg) {
        Ok(s) => s,
        Err(e) => return bad(format!("cannot bind {addr}: {e}")),
    };
    match server.local_addr() {
        Ok(a) => println!("pf-serve listening on {a}"),
        Err(_) => println!("pf-serve listening on {addr}"),
    }
    server.run();
    println!("pf-serve: shut down");
    ExitCode::SUCCESS
}

/// `parafactor submit`: send one job to a running service, print the
/// JSON response line, and exit 0 iff the job completed.
fn cmd_submit(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut algorithm = "seq".to_string();
    let mut procs = 2usize;
    let mut par_threads = 0usize;
    let mut batch_rects = 1usize;
    let mut deadline_ms: Option<u64> = None;
    let mut retries = 4u32;
    let mut delta_from: Option<String> = None;
    let mut workload: Option<String> = None;
    let bad = |msg: String| -> ExitCode {
        eprintln!("error: {msg}");
        ExitCode::FAILURE
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Option<&String> { args.get(i + 1) };
        match args[i].as_str() {
            "--addr" => match value(i) {
                Some(v) => addr = v.clone(),
                None => return bad("--addr needs a value".into()),
            },
            "-a" | "--algorithm" => match value(i) {
                Some(v) => algorithm = v.clone(),
                None => return bad("--algorithm needs a value".into()),
            },
            "-p" | "--procs" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => procs = n,
                None => return bad("--procs must be an integer".into()),
            },
            "--par-threads" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => par_threads = n,
                None => return bad("--par-threads must be a non-negative integer".into()),
            },
            "--batch-rects" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => batch_rects = n,
                _ => return bad("--batch-rects must be a positive integer".into()),
            },
            "--deadline-ms" => match value(i).and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => deadline_ms = Some(n),
                None => return bad("--deadline-ms must be an integer".into()),
            },
            "--retries" => match value(i).and_then(|v| v.parse::<u32>().ok()) {
                Some(n) => retries = n,
                None => return bad("--retries must be a non-negative integer".into()),
            },
            "--delta-from" => match value(i) {
                Some(v) => delta_from = Some(v.clone()),
                None => return bad("--delta-from needs a base fingerprint".into()),
            },
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => {
                return bad(format!("unknown submit option {other:?}"))
            }
            other => {
                if workload.is_some() {
                    return bad("more than one workload given".into());
                }
                workload = Some(other.to_string());
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return bad("no workload given (e.g. gen:misex3@0.25)".into());
    };
    // Validate locally for a prompt structured error; the service
    // re-validates (and re-caps against its own host) anyway.
    let procs = match validate_procs(procs, default_max_procs()) {
        Ok(p) => p,
        Err(e) => return bad(format!("--procs: {e}")),
    };
    let mut request = vec![
        ("op".to_string(), Json::str("submit")),
        ("algorithm".to_string(), Json::str(algorithm)),
        ("workload".to_string(), Json::str(workload)),
        ("procs".to_string(), Json::u64(procs as u64)),
        ("par_threads".to_string(), Json::u64(par_threads as u64)),
        ("batch_rects".to_string(), Json::u64(batch_rects as u64)),
    ];
    if let Some(ms) = deadline_ms {
        request.push(("deadline_ms".to_string(), Json::u64(ms)));
    }
    if let Some(base) = delta_from {
        request.push(("delta_from".to_string(), Json::str(base)));
    }
    let line = Json::Obj(request).to_string();
    // Retry what saturation looks like from here: `queue_full` and
    // `overloaded` rejections (the service is healthy but momentarily
    // full — queue or accept gate), plus transient connect/read errors
    // (a peer mid-restart), all with the same jittered backoff. Every
    // other rejection is terminal.
    let policy = RetryPolicy {
        max_retries: retries,
        ..RetryPolicy::default()
    };
    let mut attempt = 0u32;
    let response = loop {
        let responses =
            match request_lines_with_retry(addr.as_str(), std::slice::from_ref(&line), &policy) {
                Ok(r) => r,
                Err(e) => return bad(format!("cannot reach service at {addr}: {e}")),
            };
        let Some(response) = responses.into_iter().next() else {
            return bad(format!("service at {addr} closed the connection"));
        };
        let saturated = parafactor::serve::json::parse(&response)
            .ok()
            .and_then(|v| {
                (v.get("status").and_then(Json::as_str) == Some("rejected"))
                    .then(|| v.get("reason").and_then(Json::as_str).map(str::to_string))
                    .flatten()
            })
            .filter(|reason| reason == "queue_full" || reason == "overloaded");
        if let Some(reason) = saturated {
            if attempt < policy.max_retries {
                let backoff = policy.backoff(attempt);
                attempt += 1;
                eprintln!(
                    "{reason}; retry {attempt}/{} in {backoff:.1?}",
                    policy.max_retries
                );
                std::thread::sleep(backoff);
                continue;
            }
        }
        break response;
    };
    println!("{response}");
    let completed = parafactor::serve::json::parse(&response)
        .ok()
        .and_then(|v| v.get("status").map(|s| s.as_str() == Some("completed")))
        .unwrap_or(false);
    if completed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `parafactor dist`: run fault-tolerant distributed partition
/// extraction with this process as the coordinator, over in-process
/// workers or remote worker-mode servers. Prints the same JSON body the
/// service's `dist` op answers.
fn cmd_dist(args: &[String]) -> ExitCode {
    let mut workers = 2usize;
    let mut peers: Vec<String> = Vec::new();
    let mut cfg = parafactor::core::DistConfig::default();
    let mut fault_spec: Option<String> = None;
    let mut fault_seed = 0x5eed_u64;
    let mut workload: Option<String> = None;
    let bad = |msg: String| -> ExitCode {
        eprintln!("error: {msg}");
        ExitCode::FAILURE
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Option<&String> { args.get(i + 1) };
        match args[i].as_str() {
            "--workers" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n <= 64 => workers = n,
                _ => return bad("--workers must be an integer (at most 64)".into()),
            },
            "--peers" => match value(i) {
                Some(v) => peers = v.split(',').map(str::to_string).collect(),
                None => return bad("--peers needs host:port[,host:port…]".into()),
            },
            "--parts" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => cfg.parts = n,
                None => return bad("--parts must be an integer (0 = one per worker)".into()),
            },
            "--lease-timeout-ms" => match value(i).and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cfg.lease_timeout = std::time::Duration::from_millis(n),
                _ => return bad("--lease-timeout-ms must be a positive integer".into()),
            },
            "--no-recovery" => {
                cfg.recovery = false;
                i += 1;
                continue;
            }
            "--recovery-shards" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => cfg.recovery_shards = n,
                None => {
                    return bad(
                        "--recovery-shards must be an integer (0 = one per worker, 1 = serial)"
                            .into(),
                    )
                }
            },
            "--fault-plan" => match value(i) {
                Some(v) => fault_spec = Some(v.clone()),
                None => return bad("--fault-plan needs a value".into()),
            },
            "--fault-seed" => match value(i).and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => fault_seed = n,
                None => return bad("--fault-seed must be an integer".into()),
            },
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => {
                return bad(format!("unknown dist option {other:?}"))
            }
            other => {
                if workload.is_some() {
                    return bad("more than one workload given".into());
                }
                workload = Some(other.to_string());
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return bad("no workload given (e.g. gen:misex3@0.25)".into());
    };
    let mut nw = match load_circuit(&Options {
        input: workload,
        algorithm: "dist".into(),
        procs: workers.max(1),
        par_threads: 0,
        batch_rects: 1,
        output: None,
        objective: "area".into(),
        run_cx: false,
        seed: None,
        show_stats: false,
        verify: false,
    }) {
        Ok(nw) => nw,
        Err(e) => return bad(e),
    };
    let plan = match &fault_spec {
        None => None,
        Some(spec) => match FaultPlan::parse(spec, fault_seed) {
            Ok(p) => {
                eprintln!("parafactor dist: FAULT INJECTION ACTIVE ({spec})");
                Some(std::sync::Arc::new(p))
            }
            Err(e) => return bad(format!("--fault-plan: {e}")),
        },
    };
    let (report, stats) = if peers.is_empty() {
        if let Some(p) = &plan {
            cfg.extract.ctl = cfg
                .extract
                .ctl
                .clone()
                .with_faults(std::sync::Arc::clone(p));
        }
        let transport = parafactor::core::LocalTransport::with_faults(
            workers,
            plan,
            std::time::Duration::from_millis(100),
        );
        parafactor::core::distributed_extract(&mut nw, &transport, &cfg)
    } else {
        let mut transport = parafactor::serve::RemoteTransport::new(peers);
        if let Some(spec) = &fault_spec {
            transport = transport.forward_faults(spec.clone(), fault_seed);
        }
        parafactor::core::distributed_extract(&mut nw, &transport, &cfg)
    };
    println!("{}", parafactor::serve::dist_response(&report, &stats));
    if stats.balanced() && !report.cancelled {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `parafactor profile`: run one extraction with tracing armed and emit
/// the merged span timeline as Chrome Trace Event Format JSON, loadable
/// in chrome://tracing or Perfetto.
fn cmd_profile(args: &[String]) -> ExitCode {
    let mut opts = Options {
        input: String::new(),
        algorithm: "seq".into(),
        procs: 4,
        par_threads: 0,
        batch_rects: 1,
        output: None,
        objective: "area".into(),
        run_cx: false,
        seed: None,
        show_stats: false,
        verify: false,
    };
    let bad = |msg: String| -> ExitCode {
        eprintln!("error: {msg}");
        ExitCode::FAILURE
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Option<&String> { args.get(i + 1) };
        match args[i].as_str() {
            "-a" | "--algorithm" => match value(i) {
                Some(v) => opts.algorithm = v.clone(),
                None => return bad("--algorithm needs a value".into()),
            },
            "-p" | "--procs" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => opts.procs = n,
                None => return bad("--procs must be an integer".into()),
            },
            "--par-threads" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => opts.par_threads = n,
                None => return bad("--par-threads must be a non-negative integer".into()),
            },
            "--batch-rects" => match value(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.batch_rects = n,
                _ => return bad("--batch-rects must be a positive integer".into()),
            },
            "-o" | "--output" => match value(i) {
                Some(v) => opts.output = Some(v.clone()),
                None => return bad("--output needs a value".into()),
            },
            "--seed" => match value(i).and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => opts.seed = Some(n),
                None => return bad("--seed must be an integer".into()),
            },
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => {
                return bad(format!("unknown profile option {other:?}"))
            }
            other => {
                if !opts.input.is_empty() {
                    return bad("more than one input given".into());
                }
                opts.input = other.to_string();
                i += 1;
                continue;
            }
        }
        i += 2;
    }
    if opts.input.is_empty() {
        return bad("no input given (a .blif file or gen:<profile>[@scale])".into());
    }
    opts.procs = match validate_procs(opts.procs, default_max_procs()) {
        Ok(p) => p,
        Err(e) => return bad(format!("--procs: {e}")),
    };
    opts.par_threads = opts.par_threads.min(default_max_procs());
    let mut work = match load_circuit(&opts) {
        Ok(nw) => nw,
        Err(e) => return bad(e),
    };

    let tracer = Tracer::armed();
    let mut extract_cfg = ExtractConfig {
        trace: tracer.clone(),
        ..ExtractConfig::default()
    };
    extract_cfg.search.par_threads = opts.par_threads;
    extract_cfg.search.topk = opts.batch_rects;
    let report = match opts.algorithm.as_str() {
        "seq" => extract_kernels(&mut work, &[], &extract_cfg),
        "replicated" => replicated_extract(
            &mut work,
            &ReplicatedConfig {
                procs: opts.procs,
                extract: extract_cfg,
                ..ReplicatedConfig::default()
            },
        ),
        "independent" => independent_extract(
            &mut work,
            &IndependentConfig {
                procs: opts.procs,
                extract: extract_cfg,
                ..IndependentConfig::default()
            },
        ),
        "lshaped" | "lshaped-seq" => lshaped_extract(
            &mut work,
            &LShapedConfig {
                procs: opts.procs,
                sequential: opts.algorithm == "lshaped-seq",
                extract: extract_cfg,
                ..LShapedConfig::default()
            },
        ),
        "iterative" => iterative_extract(
            &mut work,
            &IterativeConfig {
                inner: IndependentConfig {
                    procs: opts.procs,
                    extract: extract_cfg,
                    ..IndependentConfig::default()
                },
                ..IterativeConfig::default()
            },
        ),
        other => {
            return bad(format!(
                "profile supports seq | replicated | independent | lshaped | lshaped-seq \
                 | iterative, not {other:?}"
            ))
        }
    };
    let trace = tracer.take();

    // Coverage: for each reported phase, sum that phase's spans per lane
    // and take the best lane (the driver-level one — parallel workers
    // duplicate phase spans, so summing across lanes would double-count;
    // iterative drivers emit several spans per phase on one lane, so a
    // single max would undercount). Cap at the phase's reported time.
    let covered_ns: u64 = report
        .phases
        .iter()
        .map(|p| {
            let mut per_lane = std::collections::HashMap::new();
            for e in trace.events.iter().filter(|e| e.name == p.name) {
                *per_lane.entry(e.lane).or_insert(0u64) += e.dur_ns;
            }
            per_lane
                .into_values()
                .max()
                .unwrap_or(0)
                .min(p.elapsed.as_nanos() as u64)
        })
        .sum();
    let elapsed_ns = report.elapsed.as_nanos() as u64;
    let coverage = if elapsed_ns == 0 {
        100.0
    } else {
        100.0 * covered_ns as f64 / elapsed_ns as f64
    };

    let json = trace_event_json(&trace, &opts, &report).to_string();
    match &opts.output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                return bad(format!("cannot write {path}: {e}"));
            }
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    eprintln!(
        "profile: {} on {}: {} events in {} lanes, {} extractions, \
         phase spans cover {coverage:.1}% of {:.3?}",
        opts.algorithm,
        opts.input,
        trace.events.len(),
        trace.lanes.len(),
        report.extractions,
        report.elapsed,
    );
    eprintln!(
        "profile: {} search passes, {:.2} rects/pass{}",
        report.passes,
        report.rects_per_pass(),
        if report.batch_candidates > 0 {
            format!(
                ", batch: {} candidates, {} accepted, {} rejected",
                report.batch_candidates, report.batch_accepted, report.batch_rejected
            )
        } else {
            String::new()
        }
    );
    if trace.dropped > 0 {
        eprintln!(
            "profile: warning: {} events lost to lane ring wrap-around",
            trace.dropped
        );
    }
    ExitCode::SUCCESS
}

/// Renders a [`Trace`] in Chrome Trace Event Format: `thread_name`
/// metadata per lane, then one complete (`ph:"X"`) event per span with
/// `ts`/`dur` in microseconds.
fn trace_event_json(
    trace: &Trace,
    opts: &Options,
    report: &parafactor::core::ExtractReport,
) -> Json {
    let mut events = Vec::with_capacity(trace.lanes.len() + trace.events.len());
    for (tid, label) in trace.lanes.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::u64(0)),
            ("tid", Json::u64(tid as u64)),
            ("args", Json::obj([("name", Json::str(label.clone()))])),
        ]));
    }
    for e in &trace.events {
        let args = Json::Obj(
            e.args
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                .collect(),
        );
        events.push(Json::obj([
            ("name", Json::str(e.name)),
            ("ph", Json::str("X")),
            ("pid", Json::u64(0)),
            ("tid", Json::u64(u64::from(e.lane))),
            ("ts", Json::Num(e.start_ns as f64 / 1000.0)),
            ("dur", Json::Num(e.dur_ns as f64 / 1000.0)),
            ("args", args),
        ]));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj([
                ("algorithm", Json::str(opts.algorithm.clone())),
                ("workload", Json::str(opts.input.clone())),
                ("elapsed_us", Json::u64(report.elapsed.as_micros() as u64)),
                ("extractions", Json::u64(report.extractions as u64)),
                ("lc_before", Json::u64(report.lc_before as u64)),
                ("lc_after", Json::u64(report.lc_after as u64)),
                ("dropped_events", Json::u64(trace.dropped)),
            ]),
        ),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return cmd_serve(&argv[1..]),
        Some("submit") => return cmd_submit(&argv[1..]),
        Some("dist") => return cmd_dist(&argv[1..]),
        Some("profile") => return cmd_profile(&argv[1..]),
        Some("bench-json") => {
            return match parafactor::benchjson::cmd_bench_json(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {}
    }
    let mut opts = parse_args();
    // Structured procs validation: 0 is an error, oversized requests are
    // capped at the host's available parallelism.
    match validate_procs(opts.procs, default_max_procs()) {
        Ok(p) => opts.procs = p,
        Err(e) => {
            eprintln!("error: --procs: {e}");
            return ExitCode::FAILURE;
        }
    }
    // 0 is meaningful for --par-threads (classic search), so only cap.
    opts.par_threads = opts.par_threads.min(default_max_procs());
    let nw = match load_circuit(&opts) {
        Ok(nw) => nw,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let original = nw.clone();
    let mut work = nw;
    println!(
        "loaded: {} inputs, {} nodes, {} literals",
        work.input_ids().count(),
        work.node_ids().count(),
        work.literal_count()
    );

    let objective = match opts.objective.as_str() {
        "area" => None,
        "timing" => Some(Objective::timing(&work)),
        "power" => Some(Objective::power(&work, 32, 0x9e3779)),
        other => {
            eprintln!("error: unknown objective {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let mut extract_cfg = ExtractConfig {
        objective: objective.clone(),
        ..ExtractConfig::default()
    };
    extract_cfg.search.par_threads = opts.par_threads;
    extract_cfg.search.topk = opts.batch_rects;

    let report = match opts.algorithm.as_str() {
        "seq" => extract_kernels(&mut work, &[], &extract_cfg),
        "replicated" => replicated_extract(
            &mut work,
            &ReplicatedConfig {
                procs: opts.procs,
                extract: extract_cfg,
                ..ReplicatedConfig::default()
            },
        ),
        "independent" => independent_extract(
            &mut work,
            &IndependentConfig {
                procs: opts.procs,
                extract: extract_cfg,
                ..IndependentConfig::default()
            },
        ),
        "lshaped-cx" => lshaped_extract_cubes(
            &mut work,
            &LShapedCxConfig {
                procs: opts.procs,
                ..LShapedCxConfig::default()
            },
        ),
        "lshaped" | "lshaped-seq" => lshaped_extract(
            &mut work,
            &LShapedConfig {
                procs: opts.procs,
                sequential: opts.algorithm == "lshaped-seq",
                extract: extract_cfg,
                ..LShapedConfig::default()
            },
        ),
        "iterative" => iterative_extract(
            &mut work,
            &IterativeConfig {
                inner: IndependentConfig {
                    procs: opts.procs,
                    extract: extract_cfg,
                    ..IndependentConfig::default()
                },
                ..IterativeConfig::default()
            },
        ),
        "script" => {
            let rep = run_script(&mut work, &ScriptConfig::default());
            println!(
                "script: {} factor passes, {:.1}% of time factoring",
                rep.factor_invocations,
                100.0 * rep.factor_fraction()
            );
            parafactor::core::ExtractReport {
                lc_before: rep.lc_before,
                lc_after: rep.lc_after,
                ..Default::default()
            }
        }
        other => {
            eprintln!("error: unknown algorithm {other:?}");
            return ExitCode::FAILURE;
        }
    };

    if opts.run_cx {
        let r = extract_common_cubes(&mut work, &[], &CubeExtractConfig::default());
        println!(
            "cube extraction: {} cubes extracted, LC {} -> {}",
            r.extractions, r.lc_before, r.lc_after
        );
    }

    println!(
        "{}: LC {} -> {} ({} extractions, {:.3?}{}{})",
        opts.algorithm,
        report.lc_before,
        work.literal_count(),
        report.extractions,
        report.elapsed,
        if opts.batch_rects > 1 {
            format!(
                ", {} passes at {:.2} rects/pass",
                report.passes,
                report.rects_per_pass()
            )
        } else {
            String::new()
        },
        if report.shipped_rectangles > 0 {
            format!(", {} partial rectangles shipped", report.shipped_rectangles)
        } else {
            String::new()
        }
    );

    if opts.show_stats {
        match stats::stats(&work) {
            Ok(s) => println!(
                "stats: inputs {}  outputs {}  nodes {}  lits(sop) {}  lits(fac) {}  depth {}  cubes {}",
                s.inputs, s.outputs, s.live_nodes, s.lits_sop, s.lits_fac, s.depth, s.cubes
            ),
            Err(e) => eprintln!("stats failed: {e}"),
        }
    }

    if opts.verify {
        match equivalent_random(&original, &work, &EquivConfig::default()) {
            Ok(true) => println!("verify: PASS (random-vector equivalence)"),
            Ok(false) => {
                eprintln!("verify: FAIL — optimized circuit differs!");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("verify error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &opts.output {
        let text = if path.ends_with(".blif") {
            write_blif(&work, "parafactor")
        } else {
            write_network(&work)
        };
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
