//! Zero-dependency blocking HTTP listener for metric scrapes and, via
//! [`Router`], whole services.
//!
//! [`MetricsServer::bind`] spawns one background accept thread; each
//! accepted connection is handled on its own short-lived thread so one
//! slow or malicious client can never wedge the scrape path for
//! everyone else. Requests are parsed into [`HttpRequest`] under hard
//! bounds — a read deadline (`408 Request Timeout` for clients that
//! stall mid-request, e.g. a half-written request line) and size caps
//! on the request line, header block, and body (`413 Payload Too
//! Large`) — so garbage input costs one connection, not the listener.
//!
//! Built-in routes: `GET /metrics` (Prometheus text via
//! [`crate::expo::render`]), `GET /healthz` (200 while the listener is
//! up), `GET /readyz` (200/503 from a caller-controlled flag, see
//! [`MetricsServer::set_ready`]), and `GET /logs` (the structured-log
//! ring as newline-delimited JSON, [`crate::log`], filterable with
//! `?level=` and `?trace_id=`).
//!
//! Every answered request — routed, built-in, or error — is RED-
//! metered into the server's own registry: a request counter labelled
//! by pattern-normalized route ([`normalize_route`]) and status, and a
//! latency histogram per route whose buckets carry the responding
//! request's trace id as an OpenMetrics exemplar when the response
//! bears an `x-horus-trace` header.
//!
//! Anything else is offered to an optional [`Router`] first
//! ([`MetricsServer::set_router`]); `horus-service` mounts its
//! `/v1/...` experiment API this way. With no router, unknown paths
//! get a 404 and non-GET methods a 405.
//!
//! Shutdown is cooperative: [`MetricsServer::shutdown`] (also run on
//! drop) sets a flag and pokes the listener with a loopback connection
//! so the blocking `accept` wakes up and the thread exits. Binding
//! port 0 works and [`MetricsServer::local_addr`] reports the picked
//! port, which is what the golden tests use.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::expo;
use crate::names;
use crate::registry::Registry;

/// Longest accepted request line (method + path + version), in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted header block, in bytes.
pub const MAX_HEADER_BYTES: usize = 32 * 1024;
/// Largest accepted request body, in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// How long a client may stall mid-request before it gets a 408.
pub const READ_DEADLINE: Duration = Duration::from_secs(2);

/// One parsed HTTP request, as handed to a [`Router`].
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Upper-cased method token (`GET`, `POST`, ...).
    pub method: String,
    /// Request path including any query string, e.g. `/v1/jobs/3`.
    pub path: String,
    /// Header `(name, value)` pairs in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Raw request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of header `name` (case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if it is valid UTF-8.
    #[must_use]
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// One HTTP response a [`Router`] hands back.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Full status line tail, e.g. `200 OK` or `429 Too Many Requests`.
    pub status: String,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Extra response headers (e.g. `Retry-After`).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A response with the given status line, content type, and body.
    #[must_use]
    pub fn new(status: &str, content_type: &str, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status: status.to_string(),
            content_type: content_type.to_string(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// An `application/json` response.
    #[must_use]
    pub fn json(status: &str, body: impl Into<String>) -> HttpResponse {
        Self::new(status, "application/json", body)
    }

    /// A `text/plain` response.
    #[must_use]
    pub fn text(status: &str, body: impl Into<String>) -> HttpResponse {
        Self::new(status, "text/plain", body)
    }

    /// Adds an extra header (builder style).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: &str) -> HttpResponse {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Renders the full wire form (status line, headers, body).
    #[must_use]
    pub fn render(&self) -> String {
        let mut extra = String::new();
        for (name, value) in &self.headers {
            extra.push_str(name);
            extra.push_str(": ");
            extra.push_str(value);
            extra.push_str("\r\n");
        }
        format!(
            "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
            self.status,
            self.content_type,
            self.body.len(),
            extra,
            self.body
        )
    }
}

/// Collapses a request path onto the closed set of route ids used as
/// the `route` metric label (see the cardinality rules in
/// [`crate::names`]).
///
/// Raw paths carry job ids, tenant names, and query strings — labelling
/// by them would grow the registry with traffic. This instead maps
/// every path the workspace serves onto a fixed pattern id
/// (`/v1/jobs/{id}`, `/v1/tenants/{tenant}`, ...) and everything else,
/// including malformed requests, onto `other`.
#[must_use]
pub fn normalize_route(path: &str) -> &'static str {
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/" | "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/logs" => "/logs",
        "/v1/jobs" => "/v1/jobs",
        "/v1/shutdown" => "/v1/shutdown",
        "/v1/workers" => "/v1/workers",
        "/v1/leases" => "/v1/leases",
        _ => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                return match rest.split_once('/') {
                    None if !rest.is_empty() => "/v1/jobs/{id}",
                    Some((id, "result")) if !id.is_empty() => "/v1/jobs/{id}/result",
                    _ => "other",
                };
            }
            if let Some(rest) = path.strip_prefix("/v1/leases/") {
                return match rest.split_once('/') {
                    Some((id, "renew")) if !id.is_empty() => "/v1/leases/{id}/renew",
                    Some((id, "push")) if !id.is_empty() => "/v1/leases/{id}/push",
                    _ => "other",
                };
            }
            if let Some(rest) = path.strip_prefix("/v1/tenants/") {
                if !rest.is_empty() && !rest.contains('/') {
                    return "/v1/tenants/{tenant}";
                }
            }
            "other"
        }
    }
}

/// A request handler mounted in front of the built-in routes.
///
/// Returning `None` passes the request on to the built-ins
/// (`/metrics`, `/healthz`, `/readyz`, `/logs`, then 404/405).
pub trait Router: Send + Sync {
    /// Answer `req`, or `None` to decline it.
    fn route(&self, req: &HttpRequest) -> Option<HttpResponse>;
}

/// Connection handlers still running, and a signal when one finishes.
type InFlight = Arc<(Mutex<usize>, Condvar)>;

/// Counts one connection handler in [`InFlight`] until dropped.
struct HandlerGuard(InFlight);

impl Drop for HandlerGuard {
    fn drop(&mut self) {
        let (count, done) = &*self.0;
        *count.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        done.notify_all();
    }
}

/// A running scrape endpoint; dropping it stops the listener thread.
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    ready: Arc<AtomicBool>,
    router: Arc<Mutex<Option<Arc<dyn Router>>>>,
    in_flight: InFlight,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, port 0 for an OS-picked port)
    /// and starts serving scrapes of `registry` on a background thread.
    ///
    /// The server starts *ready* (a registry is attached by
    /// construction); callers whose readiness depends on more — the
    /// experiment service's runners, say — clear and re-set the flag
    /// with [`MetricsServer::set_ready`].
    ///
    /// # Errors
    /// Returns the underlying I/O error if the address cannot be bound.
    pub fn bind(addr: &str, registry: Arc<Registry>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let ready = Arc::new(AtomicBool::new(true));
        let router: Arc<Mutex<Option<Arc<dyn Router>>>> = Arc::new(Mutex::new(None));
        let flag = Arc::clone(&shutdown);
        let ready_flag = Arc::clone(&ready);
        let router_slot = Arc::clone(&router);
        let in_flight: InFlight = Arc::default();
        let handlers = Arc::clone(&in_flight);
        let handle = std::thread::Builder::new()
            .name("horus-obs-http".to_string())
            .spawn(move || {
                serve(
                    &listener,
                    &registry,
                    &flag,
                    &ready_flag,
                    &router_slot,
                    &handlers,
                );
            })?;
        Ok(MetricsServer {
            addr: local,
            shutdown,
            ready,
            router,
            in_flight,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sets what `GET /readyz` answers: `true` → 200, `false` → 503.
    pub fn set_ready(&self, ready: bool) {
        self.ready.store(ready, Ordering::SeqCst);
    }

    /// Mounts `router` in front of the built-in routes (replacing any
    /// previous one). Connections accepted after this call see it.
    pub fn set_router(&self, router: Arc<dyn Router>) {
        *self.router.lock().expect("router slot poisoned") = Some(router);
    }

    /// Stops the listener thread and waits for it to exit, then for
    /// the connections it accepted to be answered (at most
    /// [`READ_DEADLINE`]). A daemon that exits after `shutdown` so
    /// still answers the request that told it to stop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shutdown.store(true, Ordering::SeqCst);
            // Wake the blocking accept; an error just means the listener
            // already went away.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
            let (count, done) = &*self.in_flight;
            let open = count.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = done.wait_timeout_while(open, READ_DEADLINE, |n| *n > 0);
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve(
    listener: &TcpListener,
    registry: &Arc<Registry>,
    shutdown: &Arc<AtomicBool>,
    ready: &Arc<AtomicBool>,
    router: &Arc<Mutex<Option<Arc<dyn Router>>>>,
    in_flight: &InFlight,
) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        // One thread per connection: a stalled client times out on its
        // own clock instead of blocking the accept loop. Errors on
        // individual connections (resets, deadline hits) only lose that
        // one exchange.
        let registry = Arc::clone(registry);
        let ready = Arc::clone(ready);
        let router = router.lock().expect("router slot poisoned").clone();
        // Counted before the thread exists, so a shutdown racing the
        // spawn still waits for it.
        *in_flight.0.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        let guard = HandlerGuard(Arc::clone(in_flight));
        let spawned = std::thread::Builder::new()
            .name("horus-obs-conn".to_string())
            .spawn(move || {
                let _guard = guard;
                let _ = handle_connection(stream, &registry, &ready, router.as_deref());
            });
        if spawned.is_err() {
            // Thread exhaustion: shed the connection rather than die.
            continue;
        }
    }
}

/// Why a request could not be parsed, mapped to the status we answer.
enum ReadError {
    /// Client stalled past [`READ_DEADLINE`] or hung up mid-request.
    Timeout,
    /// Request line, header block, or body over the size caps.
    TooLarge,
    /// Not HTTP enough to answer anything specific.
    Malformed,
    /// Connection died before a single byte: nothing to answer.
    Dead,
}

impl ReadError {
    fn response(&self) -> Option<HttpResponse> {
        match self {
            ReadError::Timeout => Some(HttpResponse::text(
                "408 Request Timeout",
                "request not completed in time\n",
            )),
            ReadError::TooLarge => Some(HttpResponse::text(
                "413 Payload Too Large",
                "request exceeds size limits\n",
            )),
            ReadError::Malformed => {
                Some(HttpResponse::text("400 Bad Request", "malformed request\n"))
            }
            ReadError::Dead => None,
        }
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes.
fn read_line_bounded<R: BufRead>(reader: &mut R, max: usize) -> Result<String, ReadError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                // EOF: a half-written request the client gave up on.
                return Err(if line.is_empty() {
                    ReadError::Dead
                } else {
                    ReadError::Timeout
                });
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if line.len() >= max {
                    return Err(ReadError::TooLarge);
                }
                line.push(byte[0]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(ReadError::Timeout);
            }
            Err(_) => return Err(ReadError::Dead),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| ReadError::Malformed)
}

/// Parses one request off `reader` under the deadline and size caps.
fn read_request<R: BufRead>(reader: &mut R) -> Result<HttpRequest, ReadError> {
    let request_line = read_line_bounded(reader, MAX_REQUEST_LINE)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Err(ReadError::Malformed);
    };
    let method = method.to_ascii_uppercase();
    let path = path.to_string();

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    let mut content_length = 0usize;
    loop {
        let line = read_line_bounded(reader, MAX_HEADER_BYTES)?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(ReadError::TooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed);
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().map_err(|_| ReadError::Malformed)?;
        }
        headers.push((name, value));
    }

    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut
            {
                ReadError::Timeout
            } else {
                ReadError::Dead
            }
        })?;
    }
    Ok(HttpRequest {
        method,
        path,
        headers,
        body,
    })
}

fn handle_connection(
    stream: TcpStream,
    registry: &Arc<Registry>,
    ready: &Arc<AtomicBool>,
    router: Option<&dyn Router>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_DEADLINE))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let started = Instant::now();
    let mut reader = BufReader::new(stream);
    let (route, response) = match read_request(&mut reader) {
        Ok(req) => {
            let resp = respond(&req, registry, ready, router);
            (normalize_route(&req.path), resp)
        }
        // Unparseable requests have no trustworthy path: meter them
        // under `other` so error storms still show up in the RED view.
        Err(err) => match err.response() {
            Some(resp) => ("other", resp),
            None => return Ok(()),
        },
    };
    record_red(registry, route, &response, started.elapsed().as_secs_f64());
    let mut stream = reader.into_inner();
    stream.write_all(response.render().as_bytes())?;
    stream.flush()
}

/// Meters one answered request into the RED families: a counter by
/// `(route, status)` and a latency histogram by `route`, the latter
/// carrying the response's `x-horus-trace` header (if any) as the
/// bucket's exemplar.
fn record_red(registry: &Registry, route: &str, response: &HttpResponse, seconds: f64) {
    let status = response.status.get(..3).unwrap_or("000");
    registry
        .counter(
            names::HTTP_REQUESTS,
            "HTTP requests answered by the shared listener.",
            &[("route", route), ("status", status)],
        )
        .inc();
    let trace = response
        .headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("x-horus-trace"))
        .map(|(_, v)| v.as_str());
    registry
        .time_histogram(
            names::HTTP_REQUEST_SECONDS,
            "Server-side HTTP request latency, accept to response.",
            &[("route", route)],
        )
        .observe_seconds_traced(seconds, trace);
}

fn respond(
    req: &HttpRequest,
    registry: &Arc<Registry>,
    ready: &Arc<AtomicBool>,
    router: Option<&dyn Router>,
) -> HttpResponse {
    if let Some(router) = router {
        if let Some(resp) = router.route(req) {
            return resp;
        }
    }
    if req.method != "GET" {
        return HttpResponse::text("405 Method Not Allowed", "method not allowed\n");
    }
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.path.as_str(), None),
    };
    match path {
        "/metrics" | "/" => {
            let body = expo::render(&registry.snapshot());
            HttpResponse::new("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
        }
        // The listener answered, so the process is alive.
        "/healthz" => HttpResponse::json("200 OK", "{\"status\":\"ok\"}\n"),
        "/readyz" => {
            if ready.load(Ordering::SeqCst) {
                HttpResponse::json("200 OK", "{\"ready\":true}\n")
            } else {
                HttpResponse::json("503 Service Unavailable", "{\"ready\":false}\n")
            }
        }
        "/logs" => logs_response(query),
        _ => HttpResponse::text(
            "404 Not Found",
            "try /metrics, /logs, /healthz, or /readyz\n",
        ),
    }
}

/// Answers `GET /logs[?level=...&trace_id=...]`. Unknown parameters and
/// unknown level names are a 400 — silently ignoring a typo like
/// `?lvl=warn` would serve the full ring and look like a match.
fn logs_response(query: Option<&str>) -> HttpResponse {
    let mut min_level = None;
    let mut trace_id = None;
    for pair in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "level" => match crate::log::Level::parse(value) {
                Some(l) => min_level = Some(l),
                None => {
                    return HttpResponse::text(
                        "400 Bad Request",
                        format!("unknown level {value:?}; try debug, info, warn, or error\n"),
                    );
                }
            },
            "trace_id" => trace_id = Some(value),
            _ => {
                return HttpResponse::text(
                    "400 Bad Request",
                    format!("unknown query parameter {key:?}; try level= or trace_id=\n"),
                );
            }
        }
    }
    HttpResponse::new(
        "200 OK",
        "application/x-ndjson",
        crate::log::ring_ndjson_filtered(min_level, trace_id),
    )
}

/// Performs a plain HTTP `GET` against `addr` at `path` and returns
/// `(status_line, body)`. This is the client half of the scrape endpoint,
/// used by in-process tooling (the service benchmark) and the golden
/// tests; it speaks just enough HTTP/1.1 for [`MetricsServer`].
///
/// # Errors
/// Returns the underlying I/O error if the connection or read fails.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    request(addr, "GET", path, &[], "")
}

/// Performs an HTTP `POST` of `body` against `addr` at `path`, with
/// `headers` as extra `(name, value)` request headers, and returns
/// `(status_line, body)` — the client half of the `horus-service` API,
/// used by `horus-load` and the e2e tests.
///
/// # Errors
/// Returns the underlying I/O error if the connection or read fails.
pub fn http_post(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<(String, String)> {
    request(addr, "POST", path, headers, body)
}

/// Full HTTP response: `(status_line, lowercase-name response headers,
/// body)` — what [`http_post_full`] returns.
pub type FullResponse = (String, Vec<(String, String)>, String);

/// Like [`http_post`], but also returns the response headers as
/// lowercase-name `(name, value)` pairs — for clients that read
/// correlation headers like `x-horus-trace` off the answer.
///
/// # Errors
/// Returns the underlying I/O error if the connection or read fails.
pub fn http_post_full(
    addr: SocketAddr,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<FullResponse> {
    let (head, body) = request_raw(addr, "POST", path, headers, body)?;
    let mut lines = head.lines();
    let status = lines.next().unwrap_or("").to_string();
    let response_headers = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    Ok((status, response_headers, body))
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<(String, String)> {
    let (head, body) = request_raw(addr, method, path, headers, body)?;
    let status = head.lines().next().unwrap_or("").to_string();
    Ok((status, body))
}

/// The shared client: one request, one `Connection: close` response,
/// returned as `(raw head, body)`.
fn request_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut extra = String::new();
    for (name, value) in headers {
        extra.push_str(name);
        extra.push_str(": ");
        extra.push_str(value);
        extra.push_str("\r\n");
    }
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response")
    })?;
    Ok((head.to_string(), body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers `/slow` after a pause, flagging when it started and when
    /// it returned.
    struct SlowRouter {
        started: Arc<AtomicBool>,
        answered: Arc<AtomicBool>,
    }

    impl Router for SlowRouter {
        fn route(&self, req: &HttpRequest) -> Option<HttpResponse> {
            if req.path != "/slow" {
                return None;
            }
            self.started.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(300));
            self.answered.store(true, Ordering::SeqCst);
            Some(HttpResponse::json("200 OK", "{\"stopping\":true}\n"))
        }
    }

    #[test]
    fn shutdown_waits_for_requests_in_flight() {
        let server = MetricsServer::bind("127.0.0.1:0", Registry::shared()).expect("bind");
        let started = Arc::new(AtomicBool::new(false));
        let answered = Arc::new(AtomicBool::new(false));
        server.set_router(Arc::new(SlowRouter {
            started: Arc::clone(&started),
            answered: Arc::clone(&answered),
        }));
        let addr = server.local_addr();
        let client = std::thread::spawn(move || http_get(addr, "/slow"));
        while !started.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        server.shutdown();
        assert!(
            answered.load(Ordering::SeqCst),
            "shutdown returned while a request was still being answered"
        );
        let (status, body) = client.join().expect("client").expect("response");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "{\"stopping\":true}\n");
    }

    #[test]
    fn serves_metrics_and_404() {
        let reg = Registry::shared();
        reg.counter("up_total", "Help.", &[]).add(2);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&reg)).expect("bind");
        let addr = server.local_addr();

        let (status, body) = http_get(addr, "/metrics").expect("get");
        assert!(status.contains("200"), "status: {status}");
        assert!(body.contains("up_total 2\n"), "body: {body}");

        let (status, _) = http_get(addr, "/nope").expect("get");
        assert!(status.contains("404"), "status: {status}");

        // Scrapes see live values.
        reg.counter("up_total", "Help.", &[]).inc();
        let (_, body) = http_get(addr, "/metrics").expect("get");
        assert!(body.contains("up_total 3\n"), "body: {body}");

        server.shutdown();
    }

    #[test]
    fn health_ready_and_logs_endpoints() {
        let server = MetricsServer::bind("127.0.0.1:0", Registry::shared()).expect("bind");
        let addr = server.local_addr();

        let (status, body) = http_get(addr, "/healthz").expect("get");
        assert!(status.contains("200"), "status: {status}");
        assert_eq!(body, "{\"status\":\"ok\"}\n");

        // Ready by default (a registry is attached by construction).
        let (status, body) = http_get(addr, "/readyz").expect("get");
        assert!(status.contains("200"), "status: {status}");
        assert_eq!(body, "{\"ready\":true}\n");

        server.set_ready(false);
        let (status, body) = http_get(addr, "/readyz").expect("get");
        assert!(status.contains("503"), "status: {status}");
        assert_eq!(body, "{\"ready\":false}\n");
        server.set_ready(true);
        let (status, _) = http_get(addr, "/readyz").expect("get");
        assert!(status.contains("200"), "status: {status}");

        crate::log::info("http-test", "a log line for the ring", &[("k", "v")]);
        let (status, body) = http_get(addr, "/logs").expect("get");
        assert!(status.contains("200"), "status: {status}");
        assert!(body.contains("a log line for the ring"), "body: {body}");

        server.shutdown();
    }

    struct EchoRouter;

    impl Router for EchoRouter {
        fn route(&self, req: &HttpRequest) -> Option<HttpResponse> {
            if req.path == "/echo" {
                let tenant = req.header("x-horus-tenant").unwrap_or("-").to_string();
                let body = req.body_str().unwrap_or("").to_string();
                Some(
                    HttpResponse::json(
                        "200 OK",
                        format!("{{\"tenant\":\"{tenant}\",\"len\":{}}}", body.len()),
                    )
                    .with_header("Retry-After", "1"),
                )
            } else {
                None
            }
        }
    }

    #[test]
    fn router_sees_posts_and_extra_headers_render() {
        let server = MetricsServer::bind("127.0.0.1:0", Registry::shared()).expect("bind");
        server.set_router(Arc::new(EchoRouter));
        let addr = server.local_addr();

        let (status, body) =
            http_post(addr, "/echo", &[("X-Horus-Tenant", "team-a")], "hello").expect("post");
        assert!(status.contains("200"), "status: {status}");
        assert_eq!(body, "{\"tenant\":\"team-a\",\"len\":5}");

        // Unrouted paths still fall through to the built-ins.
        let (status, _) = http_get(addr, "/healthz").expect("get");
        assert!(status.contains("200"), "status: {status}");
        // ... and unrouted POSTs to the 405.
        let (status, _) = http_post(addr, "/metrics", &[], "").expect("post");
        assert!(status.contains("405"), "status: {status}");

        server.shutdown();
    }

    #[test]
    fn normalize_route_is_a_closed_set() {
        for (path, want) in [
            ("/", "/metrics"),
            ("/metrics", "/metrics"),
            ("/metrics?x=1", "/metrics"),
            ("/healthz", "/healthz"),
            ("/readyz", "/readyz"),
            ("/logs", "/logs"),
            ("/logs?level=warn&trace_id=ab", "/logs"),
            ("/v1/jobs", "/v1/jobs"),
            ("/v1/jobs/17", "/v1/jobs/{id}"),
            ("/v1/jobs/17/result", "/v1/jobs/{id}/result"),
            ("/v1/jobs/17/result/extra", "other"),
            ("/v1/jobs/", "other"),
            ("/v1/tenants/team-a", "/v1/tenants/{tenant}"),
            ("/v1/tenants/team-a/x", "other"),
            ("/v1/shutdown", "/v1/shutdown"),
            ("/v1/workers", "/v1/workers"),
            ("/v1/leases", "/v1/leases"),
            ("/v1/leases/3/renew", "/v1/leases/{id}/renew"),
            ("/v1/leases/3/push", "/v1/leases/{id}/push"),
            ("/v1/leases/3", "other"),
            ("/v1/leases//push", "other"),
            ("/nope", "other"),
            ("", "other"),
        ] {
            assert_eq!(normalize_route(path), want, "path {path:?}");
        }
    }

    /// Satellite guard: the 404 body is the route list clients see, so
    /// it must name every built-in route — exactly the routes `respond`
    /// serves — or docs and server drift apart silently again.
    #[test]
    fn not_found_body_names_every_builtin_route() {
        let server = MetricsServer::bind("127.0.0.1:0", Registry::shared()).expect("bind");
        let (status, body) = http_get(server.local_addr(), "/definitely-not-a-route").expect("get");
        assert!(status.contains("404"), "status: {status}");
        for route in ["/metrics", "/logs", "/healthz", "/readyz"] {
            assert!(body.contains(route), "404 body must list {route}: {body}");
        }
        assert!(
            !body.contains("/logz"),
            "the /logz spelling was a doc bug: {body}"
        );
        server.shutdown();
    }

    #[test]
    fn logs_filters_by_level_and_trace_id() {
        let server = MetricsServer::bind("127.0.0.1:0", Registry::shared()).expect("bind");
        let addr = server.local_addr();
        crate::log::warn(
            "http-filter-test",
            "warn with trace",
            &[("trace_id", "cafe1234")],
        );
        crate::log::info("http-filter-test", "plain info line", &[]);

        let (status, body) = http_get(addr, "/logs?level=warn").expect("get");
        assert!(status.contains("200"), "status: {status}");
        assert!(body.contains("warn with trace"), "body: {body}");
        assert!(!body.contains("plain info line"), "body: {body}");

        let (status, body) = http_get(addr, "/logs?trace_id=cafe1234").expect("get");
        assert!(status.contains("200"), "status: {status}");
        assert!(body.contains("warn with trace"), "body: {body}");
        assert!(!body.contains("plain info line"), "body: {body}");

        // Empty result is a 200 with an empty NDJSON body, not an error.
        let (status, body) = http_get(addr, "/logs?trace_id=no-such-trace").expect("get");
        assert!(status.contains("200"), "status: {status}");
        assert!(body.is_empty(), "body: {body:?}");

        // Unknown parameter names and unknown levels are 400s.
        let (status, body) = http_get(addr, "/logs?lvl=warn").expect("get");
        assert!(status.contains("400"), "status: {status}");
        assert!(body.contains("unknown query parameter"), "body: {body}");
        let (status, body) = http_get(addr, "/logs?level=loud").expect("get");
        assert!(status.contains("400"), "status: {status}");
        assert!(body.contains("unknown level"), "body: {body}");

        server.shutdown();
    }

    #[test]
    fn red_metrics_meter_every_answered_request() {
        let reg = Registry::shared();
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&reg)).expect("bind");
        let addr = server.local_addr();

        http_get(addr, "/healthz").expect("get");
        http_get(addr, "/healthz").expect("get");
        http_get(addr, "/v1/jobs/17").expect("get");

        // Metering happens just before the response is written, so poll
        // briefly for the last request's sample to land.
        let mut body = String::new();
        for _ in 0..50 {
            body = http_get(addr, "/metrics").expect("scrape").1;
            if body.contains("route=\"/v1/jobs/{id}\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            body.contains("horus_http_requests_total{route=\"/healthz\",status=\"200\"} 2\n"),
            "body: {body}"
        );
        assert!(
            body.contains("horus_http_requests_total{route=\"/v1/jobs/{id}\",status=\"404\"} 1\n"),
            "unrouted /v1/jobs/17 normalizes and falls through to the built-in 404: {body}"
        );
        assert!(
            body.contains("horus_http_request_seconds_count{route=\"/healthz\"} 2\n"),
            "body: {body}"
        );

        server.shutdown();
    }

    /// The drive-by regression: a half-written request must get a 408
    /// and must not wedge the accept loop for the next client.
    #[test]
    fn half_written_request_gets_408_and_does_not_wedge() {
        let server = MetricsServer::bind("127.0.0.1:0", Registry::shared()).expect("bind");
        let addr = server.local_addr();

        // Stall a connection mid-request-line and leave it open.
        let mut stalled = TcpStream::connect(addr).expect("connect");
        stalled.write_all(b"GET /metr").expect("partial write");
        stalled.flush().expect("flush");

        // A well-behaved client must still be served immediately,
        // while the stalled one waits out its deadline.
        let (status, _) = http_get(addr, "/healthz").expect("get");
        assert!(status.contains("200"), "status: {status}");

        // The stalled client eventually gets its 408.
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut raw = String::new();
        stalled.read_to_string(&mut raw).expect("read");
        assert!(raw.contains("408"), "response: {raw}");

        server.shutdown();
    }

    #[test]
    fn oversized_body_gets_413_without_reading_it() {
        let server = MetricsServer::bind("127.0.0.1:0", Registry::shared()).expect("bind");
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        write!(
            stream,
            "POST /v1/jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .expect("write");
        stream.flush().expect("flush");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.contains("413"), "response: {raw}");

        server.shutdown();
    }

    #[test]
    fn garbage_request_line_gets_400() {
        let server = MetricsServer::bind("127.0.0.1:0", Registry::shared()).expect("bind");
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream
            .write_all(b"\x00\xffnot http\r\n\r\n")
            .expect("write");
        stream.flush().expect("flush");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read");
        let raw = String::from_utf8_lossy(&raw);
        assert!(raw.contains("400"), "response: {raw}");

        server.shutdown();
    }
}
