//! Minimal HTTP/1.1 message framing: requests parsed out of the event
//! loop's in-memory read buffers, responses written to any `Write`.
//!
//! Supports exactly what the inference endpoints need: request-line +
//! headers + `Content-Length` bodies, keep-alive, and fixed-length
//! responses. Chunked transfer encoding is rejected with `411 Length
//! Required` semantics (the caller maps [`HttpError::NeedsLength`]).

use std::io::{self, Write};

/// Upper bound on a single header line (and the request line).
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query string retained, fragment-free).
    pub path: String,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Error while parsing a request.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes are not valid HTTP — answer 400 and close.
    Bad(String),
    /// A body was sent without `Content-Length` — answer 411 and close.
    NeedsLength,
    /// The declared body exceeds the server's limit — answer 413 and close.
    BodyTooLarge { limit: usize },
}

/// Pulls one complete line (up to `\n`, CRLF-trimmed) out of `buf`
/// starting at `*pos`, advancing `*pos` past the terminator. `Ok(None)`
/// means the line is still incomplete — wait for more bytes.
fn try_take_line<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Option<&'a str>, HttpError> {
    let rest = &buf[*pos..];
    match rest.iter().position(|&b| b == b'\n') {
        Some(nl) => {
            if nl > MAX_LINE {
                return Err(HttpError::Bad(format!(
                    "header line exceeds {MAX_LINE} bytes"
                )));
            }
            let mut line = &rest[..nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            *pos += nl + 1;
            std::str::from_utf8(line)
                .map(Some)
                .map_err(|_| HttpError::Bad("non-UTF-8 header data".into()))
        }
        None if rest.len() > MAX_LINE => Err(HttpError::Bad(format!(
            "header line exceeds {MAX_LINE} bytes"
        ))),
        None => Ok(None),
    }
}

/// Parses one request out of an in-memory byte buffer without blocking.
/// Returns `Ok(Some((request, consumed)))` when a complete request (head
/// and body) is present, `Ok(None)` when the buffer holds only a prefix of
/// a request and more bytes must arrive first.
///
/// One stray empty line before the request line is tolerated, header names
/// are lower-cased, chunked bodies are refused with
/// [`HttpError::NeedsLength`], and a declared `Content-Length` beyond
/// `max_body` fails with [`HttpError::BodyTooLarge`] as soon as the head
/// is complete — before the body ever arrives.
///
/// # Errors
///
/// See [`HttpError`] for the caller's response obligations.
pub fn try_parse_request(
    buf: &[u8],
    max_body: usize,
) -> Result<Option<(Request, usize)>, HttpError> {
    let mut pos = 0usize;
    let request_line = match try_take_line(buf, &mut pos)? {
        None => return Ok(None),
        Some("") => {
            // Tolerate a stray CRLF between pipelined requests.
            match try_take_line(buf, &mut pos)? {
                None => return Ok(None),
                Some(line) => line,
            }
        }
        Some(line) => line,
    };
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(HttpError::Bad(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(format!("unsupported version {version:?}")));
    }
    let (method, path) = (method.to_ascii_uppercase(), path.to_string());
    let mut headers = Vec::new();
    loop {
        let line = match try_take_line(buf, &mut pos)? {
            None => return Ok(None),
            Some(line) => line,
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Bad(format!("more than {MAX_HEADERS} headers")));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Bad(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::NeedsLength);
    }
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::Bad(format!("bad content-length {len:?}")))?;
        if len > max_body {
            return Err(HttpError::BodyTooLarge { limit: max_body });
        }
        if buf.len() - pos < len {
            return Ok(None);
        }
        request.body = buf[pos..pos + len].to_vec();
        pos += len;
    }
    Ok(Some((request, pos)))
}

/// Writes a fixed-length response.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with_headers(writer, status, reason, content_type, &[], body, keep_alive)
}

/// [`write_response`] with extra response headers (e.g. `Retry-After` on
/// backpressure 503s). Each entry is one `name: value` pair; names must be
/// valid header tokens.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response_with_headers<W: Write>(
    writer: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Parses `raw` as at most one request, which must use every byte.
    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        Ok(
            try_parse_request(raw.as_bytes(), 1 << 20)?.map(|(req, consumed)| {
                assert_eq!(consumed, raw.len(), "bytes left over in {raw:?}");
                req
            }),
        )
    }

    #[test]
    fn parses_get_and_keep_alive_default() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.keep_alive());
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn parses_post_body_and_connection_close() {
        let req = parse(
            "POST /v1/classify HTTP/1.1\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"hello");
        assert!(!req.keep_alive());
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn garbage_is_bad_request() {
        assert!(matches!(parse("NOT HTTP\r\n\r\n"), Err(HttpError::Bad(_))));
    }

    #[test]
    fn chunked_needs_length() {
        let raw = "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::NeedsLength)));
    }

    #[test]
    fn try_parse_reports_partial_heads_and_bodies_as_incomplete() {
        let full = "POST /v1/classify HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in 0..full.len() {
            let partial = try_parse_request(&full.as_bytes()[..cut], 1 << 20).unwrap();
            assert!(partial.is_none(), "prefix of {cut} bytes must be partial");
        }
        let (req, consumed) = try_parse_request(full.as_bytes(), 1 << 20)
            .unwrap()
            .expect("complete request parses");
        assert_eq!(consumed, full.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/classify");
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn try_parse_consumes_pipelined_requests_one_at_a_time() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (a, used_a) = try_parse_request(raw, 1024).unwrap().unwrap();
        assert_eq!(a.path, "/a");
        let (b, used_b) = try_parse_request(&raw[used_a..], 1024).unwrap().unwrap();
        assert_eq!(b.path, "/b");
        assert_eq!(used_a + used_b, raw.len());
        assert!(try_parse_request(&raw[used_a + used_b..], 1024)
            .unwrap()
            .is_none());
    }

    #[test]
    fn try_parse_tolerates_one_stray_crlf_between_requests() {
        let raw = b"\r\nGET /a HTTP/1.1\r\n\r\n";
        let (req, consumed) = try_parse_request(raw, 1024).unwrap().unwrap();
        assert_eq!(req.path, "/a");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn try_parse_rejects_oversized_bodies_before_they_arrive() {
        // Head only — the declared length alone triggers the rejection.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        let err = try_parse_request(raw, 10).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { limit: 10 }));
    }

    #[test]
    fn try_parse_rejects_chunked_and_garbage() {
        let chunked = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(
            try_parse_request(chunked, 1024),
            Err(HttpError::NeedsLength)
        ));
        assert!(matches!(
            try_parse_request(b"NOT HTTP\r\n\r\n", 1024),
            Err(HttpError::Bad(_))
        ));
        let runaway = vec![b'a'; MAX_LINE + 2];
        assert!(matches!(
            try_parse_request(&runaway, 1024),
            Err(HttpError::Bad(_))
        ));
    }

    /// A `POST /v1/classify` request as a client sends it, the image in
    /// the `image_b64` body field.
    fn classify_request(image: &[f32]) -> Vec<u8> {
        let body = format!(
            "{{\"image_b64\":\"{}\",\"tier\":\"exact\"}}",
            crate::base64::encode_f32(image)
        );
        format!(
            "POST /v1/classify HTTP/1.1\r\nHost: 127.0.0.1:7878\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any bytes at all parse to a request, a need for more bytes, or a
        /// typed error; a parsed request never claims more bytes than it
        /// was given.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(0u8..=255, 0..=4096),
        ) {
            if let Ok(Some((_, consumed))) = try_parse_request(&bytes, 1 << 20) {
                prop_assert!(consumed <= bytes.len());
            }
        }

        /// Every strict prefix of a valid classify request needs more bytes,
        /// and the whole request parses, consuming exactly its own bytes
        /// even with the start of a pipelined request behind it.
        #[test]
        fn every_prefix_of_a_classify_request_is_incomplete(
            image in proptest::collection::vec(-4.0f32..4.0, 0..64),
            next in proptest::collection::vec(0u8..=255, 0..32),
        ) {
            let raw = classify_request(&image);
            for cut in 0..raw.len() {
                let parsed = try_parse_request(&raw[..cut], 1 << 20);
                prop_assert!(matches!(parsed, Ok(None)), "prefix {cut}: {parsed:?}");
            }
            let mut pipelined = raw.clone();
            pipelined.extend_from_slice(&next);
            let (req, consumed) = try_parse_request(&pipelined, 1 << 20)
                .map_err(|e| TestCaseError::fail(format!("{e:?}")))?
                .ok_or_else(|| TestCaseError::fail("complete request unparsed"))?;
            prop_assert_eq!(consumed, raw.len());
            prop_assert_eq!(req.method.as_str(), "POST");
            prop_assert_eq!(req.path.as_str(), "/v1/classify");
            prop_assert!(!req.body.is_empty() && raw.ends_with(&req.body));
        }

        /// A first line that cannot be a request line (one or more bytes,
        /// none a space or a line ending) is a 400, whatever follows.
        #[test]
        fn garbage_request_lines_are_bad_requests(
            line in proptest::collection::vec(
                prop_oneof![0u8..=9, 11u8..=12, 14u8..=31, 33u8..=255],
                1..512,
            ),
            rest in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            let mut raw = line;
            raw.extend_from_slice(b"\r\n");
            raw.extend_from_slice(&rest);
            let parsed = try_parse_request(&raw, 1 << 20);
            prop_assert!(matches!(parsed, Err(HttpError::Bad(_))), "{parsed:?}");
        }
    }

    #[test]
    fn response_writer_frames_correctly() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "application/json", b"{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn extra_headers_land_before_the_blank_line() {
        let mut out = Vec::new();
        write_response_with_headers(
            &mut out,
            503,
            "Service Unavailable",
            "application/json",
            &[("Retry-After", "1".to_string())],
            b"{}",
            false,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let head = text.split("\r\n\r\n").next().unwrap();
        assert!(head.contains("\r\nRetry-After: 1"), "{text}");
        assert!(head.contains("Connection: close"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }
}
