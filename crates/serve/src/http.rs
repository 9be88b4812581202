//! Minimal HTTP/1.1 over std: request parsing, response writing,
//! connection deadlines, and a fixed-size thread pool. Enough protocol
//! for the gateway's own routes and `curl` — not a general server.
//! Connections are `Connection: close`. The request line plus headers
//! are capped at `MAX_HEAD` (16 KiB); bodies require `Content-Length`
//! and are capped *at header parse time* (the declared length is
//! validated before any buffer is sized from it); query keys and values
//! are percent-decoded, with `+` as space. The gateway wraps each
//! connection in a `Conn`, which bounds how long a peer may take to
//! send its request ([`READ_DEADLINE`]) and to take each response.

use bb_trace::telemetry::{Counter, Gauge};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Largest accepted request body; protects the scheduler from
/// accidental uploads (job specs are a few dozen bytes).
pub const MAX_BODY: usize = 1 << 20;

/// Largest accepted request head: the request line plus every header
/// line, terminators included. Longer heads are answered 431 after
/// reading no more than this.
pub(crate) const MAX_HEAD: usize = 16 << 10;

/// How long a connection has to deliver its whole request, head and
/// body, counted from when a pool thread takes it up.
pub const READ_DEADLINE: Duration = Duration::from_secs(5);

/// How long each response, and each SSE chunk, has to reach the peer.
pub(crate) const WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Why a request could not be parsed. The connection handler maps these
/// onto proper HTTP responses instead of silently dropping the socket.
#[derive(Debug)]
pub enum RequestError {
    /// Syntactically invalid request (bad request line, a head that is
    /// not UTF-8, garbage `Content-Length`, ...) — answer 400.
    Malformed(String),
    /// Declared body length exceeds `MAX_BODY` (1 MiB) — answer 413.
    /// Raised from the header alone, before any allocation.
    TooLarge,
    /// The request line plus headers exceed 16 KiB — answer 431.
    HeadTooLarge,
    /// The read deadline passed before the request was complete —
    /// answer 408, best-effort.
    TimedOut,
    /// Transport failure mid-read, or input that ended before the
    /// declared body; there is nobody to answer.
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::TimedOut {
            RequestError::TimedOut
        } else {
            RequestError::Io(e)
        }
    }
}

/// Decode `%XX` escapes (and `+` as space) in a query component.
/// Malformed escapes are kept literally rather than rejected — query
/// values here are route parameters, not user content, and a stray `%`
/// should read back as written.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len()
                && bytes[i + 1].is_ascii_hexdigit()
                && bytes[i + 2].is_ascii_hexdigit() =>
            {
                let byte = u8::from_str_radix(&s[i + 1..i + 3], 16).expect("two hex digits");
                out.push(byte);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Validate a `Content-Length` header value without ever materialising
/// an attacker-controlled allocation: garbage (including negative
/// numbers) is a 400, anything over [`MAX_BODY`] — even values too big
/// for `usize` — is a 413.
fn parse_content_length(value: &str) -> Result<usize, RequestError> {
    let value = value.trim();
    let parsed: usize = value.parse().map_err(|e: std::num::ParseIntError| {
        if matches!(e.kind(), std::num::IntErrorKind::PosOverflow) {
            RequestError::TooLarge
        } else {
            RequestError::Malformed(format!("invalid Content-Length {value:?}"))
        }
    })?;
    if parsed > MAX_BODY {
        return Err(RequestError::TooLarge);
    }
    Ok(parsed)
}

/// A parsed request: method, decoded path segments, query map, body.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string, e.g. `/jobs/3/events`.
    pub path: String,
    /// Query parameters in order-independent form.
    pub query: BTreeMap<String, String>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The `/`-separated path segments, empty segments dropped.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// A query parameter, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }
}

/// Read one head line, through its `\n`, charging its bytes to `budget`.
/// A line that would overrun the budget is [`RequestError::HeadTooLarge`]
/// and one that is not UTF-8 is [`RequestError::Malformed`]; at the end
/// of the input the line is whatever is left, possibly empty.
fn head_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, RequestError> {
    let mut line = Vec::new();
    let n = reader
        .by_ref()
        .take(*budget as u64)
        .read_until(b'\n', &mut line)?;
    if n == *budget && line.last() != Some(&b'\n') {
        return Err(RequestError::HeadTooLarge);
    }
    *budget -= n;
    String::from_utf8(line).map_err(|_| RequestError::Malformed("request head is not UTF-8".into()))
}

/// Read and parse one request from `stream`: I/O failures surface as
/// [`RequestError::Io`], an expired read deadline as
/// [`RequestError::TimedOut`], protocol problems as answerable
/// [`RequestError::Malformed`]/[`RequestError::TooLarge`]/
/// [`RequestError::HeadTooLarge`] variants. No more than 16 KiB of
/// head are read. The declared `Content-Length` is validated
/// while still a string — the body buffer is only ever sized from a
/// value known to be ≤ the cap.
pub fn read_request(stream: impl Read) -> Result<Request, RequestError> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD;
    let line = head_line(&mut reader, &mut budget)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing request target".into()))?;
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let mut query = BTreeMap::new();
    for pair in query_str.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(percent_decode(k), percent_decode(v));
    }
    // Headers: only Content-Length matters to us.
    let mut content_length = 0usize;
    loop {
        let header = head_line(&mut reader, &mut budget)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = parse_content_length(value)?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// A response ready to serialise: status, content type, body.
#[derive(Debug)]
pub struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    /// 200 with an explicit content type.
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: 200,
            content_type,
            body: body.into(),
        }
    }

    /// 200 `application/json`.
    pub fn json(body: impl Into<Vec<u8>>) -> Self {
        Response::ok("application/json", body)
    }

    /// 200 `text/markdown`.
    pub fn markdown(body: impl Into<Vec<u8>>) -> Self {
        Response::ok("text/markdown; charset=utf-8", body)
    }

    /// 200 `text/plain`.
    pub fn text(body: impl Into<Vec<u8>>) -> Self {
        Response::ok("text/plain; charset=utf-8", body)
    }

    /// 202 `application/json` — a job was accepted.
    pub fn accepted(body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: 202,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// An error `status` with a plain-text reason, `"{message}\n"`.
    pub fn error(status: u16, message: &str) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: format!("{message}\n").into_bytes(),
        }
    }

    /// The HTTP status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The body length in bytes (what `Content-Length` will declare).
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// The reason phrase for this status.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            _ => "Internal Server Error",
        }
    }

    /// The status line + headers, with the `Content-Length` the full
    /// response would carry.
    fn head(&self) -> String {
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )
    }

    /// Serialise onto `stream` and flush.
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        stream.write_all(self.head().as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }

    /// Serialise the head only — the `HEAD` answer to a `GET` route:
    /// identical status and headers (including the `Content-Length` the
    /// body *would* have), no body bytes.
    pub fn write_head_to(&self, stream: &mut impl Write) -> io::Result<()> {
        stream.write_all(self.head().as_bytes())?;
        stream.flush()
    }
}

/// Write the head of a `text/event-stream` response; the body is
/// streamed afterwards by the SSE feed.
pub fn write_sse_head(stream: &mut impl Write) -> io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-store\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// An accepted connection under deadlines. All reads share one
/// deadline, [`READ_DEADLINE`] after the connection was taken up, and
/// each read is armed with the time left, so a peer trickling a byte at
/// a time is cut off at the same bound as a silent one. Writes get a
/// fresh [`WRITE_DEADLINE`] per flushed unit: a whole response, or one
/// SSE chunk. An expired deadline is an [`io::ErrorKind::TimedOut`]
/// error, counted into `timeouts`.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    read_by: Instant,
    write_by: Option<Instant>,
    timeouts: Arc<Counter>,
}

impl Conn {
    /// Take up `stream`: its read deadline starts now.
    pub(crate) fn new(stream: TcpStream, timeouts: Arc<Counter>) -> Self {
        Conn {
            stream,
            read_by: Instant::now() + READ_DEADLINE,
            write_by: None,
            timeouts,
        }
    }

    /// The time left before `by`, or a counted expiry.
    fn left(&self, by: Instant) -> io::Result<Duration> {
        match by.checked_duration_since(Instant::now()) {
            Some(left) if !left.is_zero() => Ok(left),
            _ => Err(self.expired()),
        }
    }

    fn expired(&self) -> io::Error {
        self.timeouts.inc();
        io::ErrorKind::TimedOut.into()
    }

    /// A socket timeout reads as `WouldBlock` on Unix and `TimedOut` on
    /// Windows; both are an expired deadline.
    fn timed_out(&self, e: io::Error) -> io::Error {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => self.expired(),
            _ => e,
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.left(self.read_by)?;
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf).map_err(|e| self.timed_out(e))
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let by = *self
            .write_by
            .get_or_insert_with(|| Instant::now() + WRITE_DEADLINE);
        let left = self.left(by)?;
        self.stream.set_write_timeout(Some(left))?;
        self.stream.write(buf).map_err(|e| self.timed_out(e))
    }

    /// Ends the unit: the next write starts a fresh deadline.
    fn flush(&mut self) -> io::Result<()> {
        self.write_by = None;
        self.stream.flush()
    }
}

/// A fixed-size thread pool for connection handling. Jobs are closures;
/// dropping the pool closes the channel and joins the workers after
/// they drain the queue.
pub struct ThreadPool {
    sender: Option<mpsc::Sender<Box<dyn FnOnce() + Send>>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// A pool of `size` workers (at least 1) that maintain the `busy`
    /// gauge and survive panicking jobs. A panic that escapes a job is
    /// caught at the worker loop (a backstop — handlers catch their own
    /// panics to answer 500, but a panic anywhere else must not shrink
    /// the pool permanently), counted into `panics`, and the worker
    /// returns to the queue.
    pub fn new(size: usize, busy: Arc<Gauge>, panics: Arc<Counter>) -> Self {
        let (sender, receiver) = mpsc::channel::<Box<dyn FnOnce() + Send>>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size.max(1))
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                let busy = Arc::clone(&busy);
                let panics = Arc::clone(&panics);
                thread::spawn(move || loop {
                    let job = match receiver.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => return,
                    };
                    match job {
                        Ok(job) => {
                            busy.add(1);
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            busy.add(-1);
                            if outcome.is_err() {
                                panics.inc();
                            }
                        }
                        Err(_) => return, // channel closed: pool dropped
                    }
                })
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Run `job` on some worker.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(sender) = &self.sender {
            let _ = sender.send(Box::new(job));
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.sender.take(); // close the channel
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_request_line_query_and_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(
                b"POST /jobs?format=json&x HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\r\nbody",
            )
            .unwrap();
            s.flush().unwrap();
            // Hold the socket open until the server side has parsed.
            let mut buf = Vec::new();
            let _ = s.read_to_end(&mut buf);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.segments(), ["jobs"]);
        assert_eq!(req.query("format"), Some("json"));
        assert_eq!(req.query("x"), Some(""));
        assert_eq!(req.body, b"body");
        Response::json("{}").write_to(&mut conn).unwrap();
        drop(conn);
        client.join().unwrap();
    }

    #[test]
    fn query_components_are_percent_decoded() {
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("m%64"), "md");
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("100%25"), "100%");
        // Malformed escapes survive literally instead of erroring.
        assert_eq!(percent_decode("50%"), "50%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%4"), "%4");
        // Multi-byte UTF-8 round-trips.
        assert_eq!(percent_decode("%C3%A9"), "é");
    }

    #[test]
    fn content_length_is_validated_before_any_allocation() {
        assert_eq!(parse_content_length(" 42 ").unwrap(), 42);
        assert_eq!(parse_content_length("0").unwrap(), 0);
        assert_eq!(parse_content_length("1048576").unwrap(), MAX_BODY);
        // One over the cap, numeric but huge, and too big for usize all
        // classify as TooLarge (413), never as a buffer size.
        for huge in ["1048577", "999999999999", "99999999999999999999999999"] {
            assert!(
                matches!(parse_content_length(huge), Err(RequestError::TooLarge)),
                "{huge}"
            );
        }
        // Garbage — including negative numbers — is Malformed (400).
        for garbage in ["-1", "abc", "1e6", "0x10", "12 34", ""] {
            assert!(
                matches!(
                    parse_content_length(garbage),
                    Err(RequestError::Malformed(_))
                ),
                "{garbage:?}"
            );
        }
    }

    #[test]
    fn encoded_query_params_reach_the_request_decoded() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /exhibits/t4?form%61t=m%64&note=a+b%20c HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            s.flush().unwrap();
            let mut buf = Vec::new();
            let _ = s.read_to_end(&mut buf);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn).unwrap();
        assert_eq!(req.query("format"), Some("md"));
        assert_eq!(req.query("note"), Some("a b c"));
        Response::json("{}").write_to(&mut conn).unwrap();
        drop(conn);
        client.join().unwrap();
    }

    #[test]
    fn the_head_is_capped_and_must_be_utf8() {
        let line = b"GET /healthz HTTP/1.1\r\n";
        let padded = |len: usize| {
            let mut head = line.to_vec();
            head.extend_from_slice(b"X-Pad: ");
            head.resize(len - 4, b'a');
            head.extend_from_slice(b"\r\n\r\n");
            head
        };
        // A head that ends exactly at the cap parses; one byte more is 431.
        assert!(read_request(&padded(MAX_HEAD)[..]).is_ok());
        assert!(matches!(
            read_request(&padded(MAX_HEAD + 1)[..]),
            Err(RequestError::HeadTooLarge)
        ));
        // A megabyte header line with no newline is refused after
        // reading the cap plus one buffer's read-ahead, not the megabyte.
        let mut endless = line.to_vec();
        endless.resize(1 << 20, b'a');
        let mut rest = &endless[..];
        assert!(matches!(
            read_request(&mut rest),
            Err(RequestError::HeadTooLarge)
        ));
        assert!(endless.len() - rest.len() <= MAX_HEAD + (8 << 10));
        for head in [
            &b"GET /\xff HTTP/1.1\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\nX-Bad: \xc3\x28\r\n\r\n",
        ] {
            assert!(
                matches!(read_request(head), Err(RequestError::Malformed(_))),
                "{head:?}"
            );
        }
    }

    /// What the parser may make of bytes from outside: a request, a
    /// 4xx-class rejection, or `Io` only when the input ended early.
    fn answers_sanely(input: &[u8]) {
        match read_request(input) {
            Ok(_)
            | Err(
                RequestError::Malformed(_) | RequestError::TooLarge | RequestError::HeadTooLarge,
            ) => {}
            Err(RequestError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{input:?}")
            }
            Err(RequestError::TimedOut) => panic!("a byte slice has no deadline: {input:?}"),
        }
    }

    /// Pieces of request heads, so random headers reach the
    /// `Content-Length` and query paths and not only the UTF-8 check.
    const HEAD_PIECES: [&[u8]; 11] = [
        b"Content-Length:",
        b"content-length: ",
        b" ",
        b"\r\n",
        b"\n",
        b":",
        b"0",
        b"7",
        b"-",
        b"%",
        b"99999999999999999999",
    ];

    proptest::proptest! {
        #[test]
        fn the_parser_never_panics_on_arbitrary_bytes(
            bytes in proptest::prop::collection::vec(0u8..=255, 0..4097)
        ) {
            answers_sanely(&bytes);
        }

        #[test]
        fn the_parser_never_panics_on_random_headers(
            picks in proptest::prop::collection::vec((0..HEAD_PIECES.len() + 1, 0u8..=127), 0..512),
            cut in 0..1024usize
        ) {
            let mut input = b"POST /jobs?x=%zz&y=%4 HTTP/1.1\r\n".to_vec();
            for (pick, byte) in picks {
                match HEAD_PIECES.get(pick) {
                    Some(piece) => input.extend_from_slice(piece),
                    None => input.push(byte),
                }
            }
            // Cut anywhere, the declared body included.
            input.truncate(cut);
            answers_sanely(&input);
        }
    }

    #[test]
    fn input_that_ends_inside_the_body_is_io() {
        let cut = b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nab";
        assert!(matches!(
            read_request(&cut[..]),
            Err(RequestError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn a_peer_that_stops_reading_times_out_the_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let timeouts = Arc::new(Counter::default());
        let mut conn = Conn::new(stream, Arc::clone(&timeouts));
        let chunk = vec![0u8; 64 << 10];
        let started = Instant::now();
        // One unflushed unit: the socket buffers fill, then the unit's
        // one deadline expires.
        let error = loop {
            if let Err(e) = conn.write_all(&chunk) {
                break e;
            }
        };
        assert_eq!(error.kind(), io::ErrorKind::TimedOut);
        assert!(started.elapsed() < WRITE_DEADLINE + Duration::from_secs(2));
        assert_eq!(timeouts.get(), 1);
        drop(peer);
    }

    #[test]
    fn pool_runs_jobs_and_joins_on_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::new(3, Arc::default(), Arc::default());
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins after draining
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn pool_workers_survive_panicking_jobs() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let panics = Arc::new(Counter::default());
        let done = Arc::new(AtomicUsize::new(0));
        // 2 workers, 4 panicking jobs: without the catch, both workers
        // would be dead after two jobs and the remaining work would hang
        // the drop-join forever.
        let pool = ThreadPool::new(2, Arc::default(), Arc::clone(&panics));
        for i in 0..8 {
            let done = Arc::clone(&done);
            pool.execute(move || {
                if i % 2 == 0 {
                    panic!("injected test panic");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 4, "surviving jobs all ran");
        assert_eq!(panics.get(), 4, "every panic was counted");
    }
}
