//! Minimal keep-alive HTTP/1.1 client for the service workload.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One TCP connection carrying sequential requests framed by
/// `Content-Length`.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::with_capacity(1 << 16, stream),
        })
    }

    /// Sends one request and reads the whole response: `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        // One write per request: a head-then-body pair of small writes
        // trips Nagle + delayed ACK.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.reader.get_mut().write_all(request.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-head".into()));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

fn bad(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}
