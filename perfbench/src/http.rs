//! A minimal HTTP/1.1 client: one persistent (`keep-alive`) connection
//! per load thread, and one-shot requests for scrapes and probes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// The server idles a kept-alive connection out after 2 s; reconnect
/// before that instead of racing it.
const MAX_IDLE: Duration = Duration::from_millis(1500);

#[derive(Debug, Clone, Default)]
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    last_used: Instant,
    keep_alive: bool,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(1 << 16),
            last_used: Instant::now(),
            keep_alive: true,
        }
    }

    /// A connection that sends `Connection: close` and reconnects for
    /// every request.
    pub fn one_shot(addr: SocketAddr) -> Self {
        Conn {
            keep_alive: false,
            ..Conn::new(addr)
        }
    }

    /// Opens the socket now, so the first timed request does not pay
    /// for the handshake.
    pub fn ensure_open(&mut self) -> io::Result<()> {
        if self.stream.is_some() && self.last_used.elapsed() > MAX_IDLE {
            self.stream = None;
        }
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(s);
            self.buf.clear();
            self.last_used = Instant::now();
        }
        Ok(())
    }

    pub fn close(&mut self) {
        self.stream = None;
        self.buf.clear();
    }

    /// Sends one request and reads the whole response. The connection
    /// must already be open ([`Conn::ensure_open`]) when the caller is
    /// timing the exchange.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        self.ensure_open()?;
        let result = self.exchange(method, path, body);
        self.last_used = Instant::now();
        match &result {
            Ok(reply) if self.keep_alive && reply.header("Connection") != Some("close") => {}
            _ => self.close(),
        }
        result
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let stream = self.stream.as_mut().expect("opened by ensure_open");
        let conn = if self.keep_alive {
            "keep-alive"
        } else {
            "close"
        };
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {conn}\r\n");
        if !body.is_empty() || method == "POST" {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        let mut msg = head.into_bytes();
        msg.extend_from_slice(body);
        stream.write_all(&msg)?;

        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p;
            }
            fill(stream, &mut self.buf)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("non-UTF-8 response head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut headers = Vec::new();
        let mut length = None;
        for line in lines {
            let (k, v) = line
                .split_once(':')
                .ok_or_else(|| bad("malformed header"))?;
            let (k, v) = (k.trim().to_string(), v.trim().to_string());
            if k.eq_ignore_ascii_case("Content-Length") {
                length = Some(v.parse::<usize>().map_err(|_| bad("bad Content-Length"))?);
            }
            headers.push((k, v));
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        let body_start = head_end + 4;
        while self.buf.len() < body_start + length {
            fill(stream, &mut self.buf)?;
        }
        let body = self.buf[body_start..body_start + length].to_vec();
        self.buf.drain(..body_start + length);
        Ok(Reply {
            status,
            headers,
            body,
        })
    }
}

fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 64 * 1024];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// One-shot GET with `Connection: close`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Reply> {
    Conn::one_shot(addr).request("GET", path, b"")
}
