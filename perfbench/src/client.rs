//! Minimal keep-alive HTTP/1.1 client over `std::net`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// The request bytes of one `POST /v1/jobs?wait=1` carrying `key`.
pub fn submit_bytes(key: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /v1/jobs?wait=1 HTTP/1.1\r\nHost: perfbench\r\nAuthorization: Bearer {key}\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    fn connect(&mut self) -> std::io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader));
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    /// Sends one request and reads its response. A transport error drops
    /// the connection; the next call reconnects.
    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        let result = self.try_round_trip(request);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    fn try_round_trip(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        let (stream, reader) = self.connect()?;
        stream.write_all(request)?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| std::io::Error::other("bad content length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        if close {
            self.conn = None;
        }
        let body = String::from_utf8(body).map_err(|_| std::io::Error::other("non-UTF-8 body"))?;
        Ok(Reply { status, body })
    }
}
