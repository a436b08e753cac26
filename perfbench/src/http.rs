//! The load generator's HTTP client: one exchange per connection, which is
//! all the gateway speaks (`Connection: close` after every response).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpResponse {
    pub status: u16,
    pub body: String,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The bytes of one request. Kept separate so the traced run can hand the
/// workload's own request bytes to the gateway's parser.
pub fn request_bytes(method: &str, path: &str, token: Option<&str>, body: &str) -> Vec<u8> {
    let auth = token
        .map(|t| format!("Authorization: Bearer {t}\r\n"))
        .unwrap_or_default();
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\n{auth}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parses a complete response as read to end-of-stream: status line,
/// headers, then exactly `Content-Length` body bytes.
pub fn parse_response(raw: &[u8]) -> io::Result<HttpResponse> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let mut status_line = lines.next().unwrap_or("").split(' ');
    let status = match (status_line.next(), status_line.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .ok()
            .filter(|c| (100..600).contains(c))
            .ok_or_else(|| bad("bad status code"))?,
        _ => return Err(bad("bad status line")),
    };
    let mut length = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("header without a colon"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| bad("bad Content-Length"))?,
            );
        }
    }
    let body = &raw[split + 4..];
    if length.is_some_and(|n| n != body.len()) {
        return Err(bad("body length differs from Content-Length"));
    }
    let body = String::from_utf8(body.to_vec()).map_err(|_| bad("non-UTF-8 response body"))?;
    Ok(HttpResponse { status, body })
}

/// One exchange over a fresh connection.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let raw = b"HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n\
                    Content-Length: 15\r\nConnection: close\r\n\r\n{\"job_id\":\"ab\"}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(r.body, "{\"job_id\":\"ab\"}");
        let shed = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\ncontent-length: 0\r\n\r\n";
        assert_eq!(parse_response(shed).unwrap().status, 429);
        // No Content-Length: the body runs to end-of-stream.
        let open = b"HTTP/1.0 200 OK\r\n\r\nok\n";
        assert_eq!(parse_response(open).unwrap().body, "ok\n");
    }

    #[test]
    fn defects_are_errors_not_panics() {
        let cases: &[&[u8]] = &[
            b"",
            b"HTTP/1.1 200 OK\r\n",
            b"SPDY/9 200 OK\r\n\r\n",
            b"HTTP/1.1 pony OK\r\n\r\n",
            b"HTTP/1.1 999 Nope\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nbroken header\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc",
            b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n\xff",
        ];
        for raw in cases {
            assert!(
                parse_response(raw).is_err(),
                "{:?}",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn request_bytes_parse_with_the_gateway_parser() {
        let raw = request_bytes("POST", "/v1/verify", Some("tok"), "{\"a\":1}");
        let req = overify_gateway::http::read_request(&mut io::Cursor::new(&raw[..]))
            .expect("parses")
            .expect("present");
        assert_eq!(req.method, "POST");
        assert_eq!(req.bearer_token(), Some("tok"));
        assert_eq!(req.body, b"{\"a\":1}");
        let get = request_bytes("GET", "/healthz", None, "");
        assert!(String::from_utf8(get)
            .unwrap()
            .contains("Content-Length: 0\r\n"));
    }
}
