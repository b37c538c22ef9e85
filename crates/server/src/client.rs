//! A small blocking client for the line protocol — the connector the
//! integration tests and the closed-loop load generator drive.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One connection speaking the line protocol.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request line and reads the one response line.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while resp.ends_with('\n') || resp.ends_with('\r') {
            resp.pop();
        }
        Ok(resp)
    }

    /// Sends raw bytes as-is (no terminator added) — the hook the
    /// malformed-input tests use to speak *broken* protocol.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads one response line after [`Client::send_raw`].
    pub fn read_response(&mut self) -> std::io::Result<String> {
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while resp.ends_with('\n') || resp.ends_with('\r') {
            resp.pop();
        }
        Ok(resp)
    }

    /// Bounds how long a read waits for an answer (`None` waits forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Half-closes the write side, signalling EOF to the server while the
    /// read side stays open.
    pub fn shutdown_write(&mut self) -> std::io::Result<()> {
        self.writer.shutdown(std::net::Shutdown::Write)
    }

    /// A `reaches` probe, parsed.
    pub fn reaches(&mut self, src: &str, dst: &str) -> std::io::Result<Result<bool, String>> {
        let resp = self.request(&format!("reaches {src} {dst}"))?;
        Ok(match resp.as_str() {
            "ok true" => Ok(true),
            "ok false" => Ok(false),
            other => Err(other.to_owned()),
        })
    }
}
