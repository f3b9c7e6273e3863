//! A minimal blocking client for the JSON-lines protocol.
//!
//! One request in flight per connection: [`Client::request`] writes a
//! line and blocks for the next response line. Pipelining is a protocol
//! feature (ids correlate out-of-order answers), but the scripted
//! smoke-test use cases this client serves — `gpumc client`, the e2e
//! tests — get their concurrency from many connections instead, which
//! also exercises the server's accept path harder.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;

use crate::json::{self, Json};

/// A connected client. See the module docs.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Connection I/O errors.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            next_id: 1,
        })
    }

    /// Sends one request object (an `id` is added if absent) and blocks
    /// for the matching response.
    ///
    /// # Errors
    ///
    /// I/O errors, a closed connection, or an unparsable response.
    pub fn request(&mut self, mut request: Json) -> std::io::Result<Json> {
        if let Json::Obj(pairs) = &mut request {
            if !pairs.iter().any(|(k, _)| k == "id") {
                pairs.insert(0, ("id".to_string(), Json::count(self.next_id)));
                self.next_id += 1;
            }
        }
        json::write_line(&mut self.writer, &request)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(line.trim_end()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response: {e}"),
            )
        })
    }

    /// Builds and sends a `verify` request for a litmus source.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn verify(
        &mut self,
        source: &str,
        model: Option<&str>,
        bound: Option<u32>,
        timeout_ms: Option<u64>,
    ) -> std::io::Result<Json> {
        let mut pairs = vec![
            ("verb".to_string(), Json::str("verify")),
            ("source".to_string(), Json::str(source)),
        ];
        if let Some(m) = model {
            pairs.push(("model".into(), Json::str(m)));
        }
        if let Some(b) = bound {
            pairs.push(("bound".into(), Json::count(u64::from(b))));
        }
        if let Some(t) = timeout_ms {
            pairs.push(("timeout_ms".into(), Json::count(t)));
        }
        self.request(Json::Obj(pairs))
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn ping(&mut self) -> std::io::Result<Json> {
        self.request(Json::Obj(vec![("verb".into(), Json::str("ping"))]))
    }

    /// Fetches the metrics snapshot.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn metrics(&mut self) -> std::io::Result<Json> {
        self.request(Json::Obj(vec![("verb".into(), Json::str("metrics"))]))
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.request(Json::Obj(vec![("verb".into(), Json::str("shutdown"))]))
    }
}
