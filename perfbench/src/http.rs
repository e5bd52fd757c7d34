//! A minimal keep-alive HTTP/1.1 client, written here rather than taken
//! from `xbar-serve` so the load generator does not change when the server
//! crate does.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response: status code and body bytes.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 << 10),
        })
    }

    /// Sends one request.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.stream.write_all(&req)
    }

    /// Reads one `Content-Length`-framed response.
    pub fn recv(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.lines();
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line in {head:?}")))?;
        let len: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("response without Content-Length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Response { status, body })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.send(method, path, body)?;
        self.recv()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 << 10];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// The `"scores"` array of a classify response, parsed straight from the
/// body text (the f32 → decimal → f64 round trip is exact).
pub fn scores(body: &[u8]) -> Option<Vec<f64>> {
    let text = std::str::from_utf8(body).ok()?;
    let start = text.find("\"scores\":[")? + "\"scores\":[".len();
    let end = start + text[start..].find(']')?;
    text[start..end]
        .split(',')
        .map(|v| v.trim().parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_are_read_from_a_classify_body() {
        let body = br#"{"tier":"exact","class":1,"scores":[0.25,0.75],"batch_size":1}"#;
        assert_eq!(scores(body), Some(vec![0.25, 0.75]));
        assert_eq!(scores(b"{\"error\":\"x\"}"), None);
    }

    #[test]
    fn frames_keep_alive_responses() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut chunk = [0u8; 1024];
            while seen.windows(2).filter(|w| w == b"hi").count() < 2 {
                let n = s.read(&mut chunk).unwrap();
                seen.extend_from_slice(&chunk[..n]);
            }
            // Both responses in one write: the client must split them.
            s.write_all(
                b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nokHTTP/1.1 503 No\r\nContent-Length: 0\r\n\r\n",
            )
            .unwrap();
        });
        let mut c = Conn::connect(&addr).unwrap();
        c.send("POST", "/x", b"hi").unwrap();
        c.send("POST", "/x", b"hi").unwrap();
        let a = c.recv().unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, &b"ok"[..]));
        assert_eq!(c.recv().unwrap().status, 503);
        server.join().unwrap();
    }
}
