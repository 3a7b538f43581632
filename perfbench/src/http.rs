//! The benchmark's own keep-alive HTTP/1.1 client. Each request leaves
//! in one `write_all` and each response is read through one buffer, so
//! the client's cost stays fixed while the daemon changes.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    addr: SocketAddr,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
    out: Vec<u8>,
    line: String,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            out: Vec::new(),
            line: String::new(),
        }
    }

    fn connect(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            let reader = BufReader::with_capacity(64 * 1024, s.try_clone()?);
            self.stream = Some((s, reader));
        }
        Ok(())
    }

    /// Sends one request and returns `(status, body)`. A request on a
    /// kept-alive socket the daemon has closed meanwhile is sent once
    /// more on a fresh one when `idempotent`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        idempotent: bool,
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let reused = self.stream.is_some();
        match self.try_request(method, path, body) {
            Err(_) if reused && idempotent => {
                self.stream = None;
                self.try_request(method, path, body)
            }
            r => r,
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        self.connect()?;
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body);
        let result = self.exchange();
        if !matches!(result, Ok((_, _, true))) {
            self.stream = None;
        }
        result.map(|(status, body, _)| (status, body))
    }

    /// Writes the request and reads the response; the flag says whether
    /// the socket stays open.
    fn exchange(&mut self) -> std::io::Result<(u16, Vec<u8>, bool)> {
        let (stream, reader) = self.stream.as_mut().expect("connected");
        stream.write_all(&self.out)?;
        self.line.clear();
        reader.read_line(&mut self.line)?;
        let status: u16 = self
            .line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {:?}", self.line)))?;
        let mut length = None;
        let mut keep = true;
        loop {
            self.line.clear();
            if reader.read_line(&mut self.line)? == 0 {
                return Err(invalid("connection closed inside the response head".into()));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim();
                if name == "content-length" {
                    length = value.parse::<usize>().ok();
                } else if name == "connection" && value.eq_ignore_ascii_case("close") {
                    keep = false;
                }
            }
        }
        let length = length.ok_or_else(|| invalid("response without content-length".into()))?;
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        Ok((status, body, keep))
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// `{"points": [[...], ...]}`, with every value in Rust's shortest
/// round-trip form.
pub fn predict_body(points: &[Vec<f64>]) -> Vec<u8> {
    let mut s = String::with_capacity(points.len() * points.first().map_or(0, Vec::len) * 24);
    s.push_str("{\"points\":[");
    for (i, row) in points.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(s, "{v}");
        }
        s.push(']');
    }
    s.push_str("]}");
    s.into_bytes()
}

/// The `predictions` array of a predict response.
pub fn parse_predictions(body: &[u8]) -> Result<Vec<f64>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let v: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    v["predictions"]
        .as_array()
        .ok_or("response without `predictions`")?
        .iter()
        .map(|p| {
            p.as_f64()
                .ok_or_else(|| format!("prediction {p:?} is not a number"))
        })
        .collect()
}

/// Bit-for-bit equality of two prediction vectors.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
