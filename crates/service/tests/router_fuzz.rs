//! Router fuzz: seeded arbitrary bytes, headers and bodies against the
//! service's shared listener.
//!
//! A service holds one plan in every job-slot state — committed,
//! leased, and never leased — plus a live worker and two leases. Then
//! each case sends one hostile request: raw garbage, or a request to
//! `/v1/jobs` or a worker route with random headers and a random,
//! truncated or ill-typed JSON body, naming unknown workers, unknown
//! leases, or jobs that are unleased or already committed. Every answer
//! must be a well-formed 4xx, nothing may panic, and the job queue's
//! counts must not move. Afterwards the plan still finishes and matches
//! a local run byte for byte.

use horus_harness::{Harness, HarnessOptions, JobOutcome, JobSpec, ProgressMode};
use horus_obs::http::{http_get, http_post};
use horus_obs::{MetricsServer, Registry, Router, SpanBook};
use horus_service::{
    plans, ExperimentService, LeaseGrant, PushRequest, ServiceConfig, SubmitRequest, WorkerWelcome,
};
use horus_sim::rng::{check, default_cases, Rng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    let (status, body) = http_post(addr, path, &[], body).expect("post");
    assert!(status.contains(" 2"), "{path} answered {status}: {body}");
    body
}

fn lease(addr: SocketAddr, worker: u64) -> LeaseGrant {
    let ask = format!("{{\"worker\":{worker},\"max\":1}}");
    serde_json::from_str(&post(addr, "/v1/leases", &ask)).expect("grant")
}

fn push_body(job: u64, spec: &JobSpec) -> String {
    let push = PushRequest {
        job,
        outcome: JobOutcome::Completed {
            result: spec.execute(),
            cached: false,
        },
        profile: None,
        stamps: None,
    };
    serde_json::to_string(&push).expect("serialize")
}

/// Sends `request` raw, half-closes, and returns the status code after
/// checking the answer is well-formed HTTP.
fn send(addr: SocketAddr, request: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(request).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let raw = String::from_utf8_lossy(&raw);
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no answer to {:?}", String::from_utf8_lossy(request)));
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|n| n.parse::<usize>().ok());
    assert_eq!(length, Some(body.len()), "{head}");
    head.split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"))
}

/// Printable, header-safe text.
fn word(rng: &mut Rng) -> String {
    rng.vec(1..12, |r| char::from(b'!' + r.below(94) as u8))
        .into_iter()
        .filter(|c| *c != ':')
        .collect()
}

/// A body that must not parse as what its route expects.
fn bad_body(rng: &mut Rng, valid: &[&str]) -> Vec<u8> {
    match rng.below(4) {
        0 => rng.vec(0..300, Rng::byte),
        1 => {
            // A strict prefix of a valid body: truncated JSON.
            let body = valid[rng.below(valid.len() as u64) as usize];
            body.as_bytes()[..rng.below(body.len() as u64) as usize].to_vec()
        }
        2 => b"{\"worker\":\"w\",\"max\":-1,\"job\":null,\"specs\":7}".to_vec(),
        _ => format!("[{},{}]", rng.next_u64(), word(rng)).into_bytes(),
    }
}

#[test]
fn hostile_requests_get_a_4xx_and_leave_the_queue_alone() {
    let registry = Registry::shared();
    let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let harness = Arc::new(Harness::new(HarnessOptions {
        jobs: Some(0),
        no_cache: true,
        progress: ProgressMode::Silent,
        ..HarnessOptions::default()
    }));
    let service = ExperimentService::start(
        &ServiceConfig::default(),
        harness,
        Some(registry),
        Some(SpanBook::shared()),
    );
    server.set_router(Arc::clone(&service) as Arc<dyn Router>);
    let addr = server.local_addr();

    // One plan with a committed, a leased and a never-leased job.
    let specs = plans::full_plan()[..3].to_vec();
    let submit = serde_json::to_string(&SubmitRequest::plan(specs.clone())).expect("ser");
    post(addr, "/v1/jobs", &submit);
    let deadline = Instant::now() + Duration::from_secs(30);
    while service.job_counts() != (3, 0, 0) {
        assert!(Instant::now() < deadline, "plan never reached the queue");
        std::thread::sleep(Duration::from_millis(2));
    }
    let hello = "{\"name\":\"fuzz\",\"jobs\":1}";
    let worker: WorkerWelcome =
        serde_json::from_str(&post(addr, "/v1/workers", hello)).expect("welcome");
    let first = lease(addr, worker.worker);
    let done_lease = first.lease.expect("leased");
    let done_job = first.jobs[0].job;
    post(
        addr,
        &format!("/v1/leases/{done_lease}/push"),
        &push_body(done_job, &specs[0]),
    );
    let second = lease(addr, worker.worker);
    let held_lease = second.lease.expect("leased");
    let held_job = second.jobs[0].job;
    let unleased_job = (0..3)
        .find(|j| ![done_job, held_job].contains(j))
        .expect("one job left");
    let counts = service.job_counts();
    assert_eq!(counts, (1, 1, 1));

    let committed_push = push_body(done_job, &specs[0]);
    let unleased_push = push_body(unleased_job, &specs[2]);
    let valid: [&str; 5] = [
        &submit,
        hello,
        "{\"worker\":0,\"max\":1}",
        &committed_push,
        &unleased_push,
    ];
    check(
        "hostile_requests_get_a_4xx_and_leave_the_queue_alone",
        default_cases(),
        |rng| {
            let unknown = rng.range(1000..u64::MAX);
            let known_lease = [done_lease, held_lease][rng.below(2) as usize];
            let (path, body): (String, Vec<u8>) = match rng.below(10) {
                0 => {
                    let mut raw = rng.vec(1..200, Rng::byte);
                    if rng.chance(0.5) {
                        raw.extend_from_slice(b"\r\n\r\n");
                    }
                    let code = send(addr, &raw);
                    assert!((400..500).contains(&code), "garbage answered {code}");
                    assert_eq!(service.job_counts(), counts);
                    return;
                }
                1 => ("/v1/jobs".into(), bad_body(rng, &valid)),
                2 => ("/v1/workers".into(), bad_body(rng, &valid)),
                3 => ("/v1/leases".into(), bad_body(rng, &valid)),
                4 => (
                    "/v1/leases".into(),
                    format!("{{\"worker\":{unknown},\"max\":{}}}", rng.below(100)).into_bytes(),
                ),
                5 => (format!("/v1/leases/{unknown}/renew"), Vec::new()),
                6 => (
                    format!(
                        "/v1/leases/{}/push",
                        [unknown, known_lease][rng.below(2) as usize]
                    ),
                    [committed_push.as_bytes(), unleased_push.as_bytes()][rng.below(2) as usize]
                        .to_vec(),
                ),
                7 => (
                    format!("/v1/leases/{known_lease}/push"),
                    bad_body(rng, &valid),
                ),
                8 => (
                    format!("/v1/leases/{}/{}", word(rng), word(rng)),
                    bad_body(rng, &valid),
                ),
                _ => (format!("/v1/{}", word(rng)), bad_body(rng, &valid)),
            };
            let method = ["POST", "POST", "POST", "GET", "PUT", "DELETE"][rng.below(6) as usize];
            let mut request = format!("{method} {path} HTTP/1.1\r\nHost: fuzz\r\n");
            for _ in 0..rng.below(4) {
                request.push_str(&format!("X-{}: {}\r\n", word(rng), word(rng)));
            }
            if rng.chance(0.3) {
                request.push_str(&format!("x-horus-tenant: {}\r\n", word(rng)));
            }
            request.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            let mut raw = request.into_bytes();
            raw.extend_from_slice(&body);
            let code = send(addr, &raw);
            assert!(
                (400..500).contains(&code),
                "{method} {path} answered {code}"
            );
            assert_eq!(
                service.job_counts(),
                counts,
                "{method} {path} moved the queue"
            );
        },
    );

    // The service still works: the held job and the last one finish,
    // and the merged plan equals a local run.
    post(
        addr,
        &format!("/v1/leases/{held_lease}/push"),
        &push_body(held_job, &specs[1]),
    );
    let last = lease(addr, worker.worker);
    post(
        addr,
        &format!("/v1/leases/{}/push", last.lease.expect("leased")),
        &push_body(last.jobs[0].job, &specs[2]),
    );
    let result = loop {
        let (status, body) = http_get(addr, "/v1/jobs/0/result").expect("result");
        if status.contains("200") {
            break body;
        }
        assert!(Instant::now() < deadline, "plan never committed");
        std::thread::sleep(Duration::from_millis(5));
    };
    let local = Harness::serial().run(&specs).outcomes;
    assert_eq!(result, serde_json::to_string(&local).expect("ser"));
    service.begin_drain();
    service.wait_until_drained();
    service.join();
    server.shutdown();
}
