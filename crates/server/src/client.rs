//! The one blocking client for the JSON-lines protocol.
//!
//! Connecting sets `TCP_NODELAY`, so a small request never waits out
//! Nagle's delayed-ACK stall. Each request is one `write_all` of
//! `line + "\n"`; each response is one line, end-trimmed. EOF and I/O
//! failures come back as [`io::Error`]s, never panics.
//! [`Client::request`] numbers requests 1, 2, … and checks that each
//! response echoes its id; [`Client::send`] and [`Client::recv`] are the
//! raw halves, for callers that pick their own ids or pipeline.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One blocking connection to a JSON-lines server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    next_id: u64,
}

impl Client {
    /// Connects to `addr` with `TCP_NODELAY` set.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            out: Vec::new(),
            next_id: 0,
        })
    }

    /// Sends `{"id":N,<body>}` with the next id and returns its response
    /// line. A response that does not echo `N` is an error.
    pub fn request(&mut self, body: &str) -> io::Result<String> {
        self.next_id += 1;
        let id = self.next_id;
        self.send(&format!("{{\"id\":{id},{body}}}"))?;
        let line = self.recv()?;
        // Responses are rendered with `id` first (`protocol::ok_line`,
        // `protocol::err_line`), so the echo is a prefix.
        if !line.starts_with(&format!("{{\"id\":{id},")) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response does not echo id {id}: {line}"),
            ));
        }
        Ok(line)
    }

    /// Writes one request line (the newline is appended) in a single
    /// `write_all`.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)
    }

    /// Reads one response line, with its line ending trimmed.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}
