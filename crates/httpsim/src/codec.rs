//! Byte-level HTTP/1.1 codec.
//!
//! The simulation never serializes a message; tests use the codec to
//! validate that the simulated wire sizes line up with real
//! serialization. Supports exactly the subset the mesh
//! needs: request line / status line, headers, `content-length`-framed
//! bodies. No chunked encoding, no HTTP/2.

use crate::headers::{HeaderMap, HDR_CONTENT_LENGTH, HDR_HOST};
use crate::message::{Method, Request, Response, StatusCode};
use bytes::{BufMut, Bytes, BytesMut};

/// Maximum accepted header block, a defense against unbounded buffering.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Codec errors.
#[derive(Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The start line was malformed.
    BadStartLine(String),
    /// A header line was malformed.
    BadHeader(String),
    /// `content-length` missing or unparsable where a body is required.
    BadContentLength,
    /// Header block exceeded [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadStartLine(l) => write!(f, "malformed start line: {l:?}"),
            CodecError::BadHeader(l) => write!(f, "malformed header: {l:?}"),
            CodecError::BadContentLength => write!(f, "missing or invalid content-length"),
            CodecError::HeadersTooLarge => write!(f, "header block too large"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serialize a request head (start line + headers + CRLF). The body (of
/// `body_len` bytes, supplied by the caller) follows on the wire.
pub fn encode_request_head(req: &Request) -> Bytes {
    let mut buf = BytesMut::with_capacity(256 + req.headers.wire_size());
    buf.put_slice(req.method.as_str().as_bytes());
    buf.put_u8(b' ');
    buf.put_slice(req.path.as_bytes());
    buf.put_slice(b" HTTP/1.1\r\n");
    put_header(&mut buf, HDR_HOST, &req.authority);
    put_header(&mut buf, HDR_CONTENT_LENGTH, &req.body_len.to_string());
    for (n, v) in req.headers.iter() {
        if n == HDR_HOST || n == HDR_CONTENT_LENGTH {
            continue;
        }
        put_header(&mut buf, n, v);
    }
    buf.put_slice(b"\r\n");
    buf.freeze()
}

/// Serialize a response head.
pub fn encode_response_head(resp: &Response) -> Bytes {
    let mut buf = BytesMut::with_capacity(128 + resp.headers.wire_size());
    buf.put_slice(b"HTTP/1.1 ");
    buf.put_slice(resp.status.0.to_string().as_bytes());
    buf.put_u8(b' ');
    buf.put_slice(resp.status.reason().as_bytes());
    buf.put_slice(b"\r\n");
    put_header(&mut buf, HDR_CONTENT_LENGTH, &resp.body_len.to_string());
    for (n, v) in resp.headers.iter() {
        if n == HDR_CONTENT_LENGTH {
            continue;
        }
        put_header(&mut buf, n, v);
    }
    buf.put_slice(b"\r\n");
    buf.freeze()
}

fn put_header(buf: &mut BytesMut, name: &str, value: &str) {
    buf.put_slice(name.as_bytes());
    buf.put_slice(b": ");
    buf.put_slice(value.as_bytes());
    buf.put_slice(b"\r\n");
}

/// Find the end of the header block (`\r\n\r\n`); returns the offset just
/// past it, or `None` if incomplete.
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Parse a request head from `buf[..head_end]` (as located by
/// [`find_head_end`]). Returns the request with `body_len` taken from
/// `content-length` (0 if absent).
pub fn decode_request_head(head: &[u8]) -> Result<Request, CodecError> {
    if head.len() > MAX_HEADER_BYTES {
        return Err(CodecError::HeadersTooLarge);
    }
    let text =
        std::str::from_utf8(head).map_err(|_| CodecError::BadStartLine("non-utf8".into()))?;
    let mut lines = text.split("\r\n");
    let start = lines.next().unwrap_or("");
    let mut parts = start.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or_else(|| CodecError::BadStartLine(start.into()))?;
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| CodecError::BadStartLine(start.into()))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(CodecError::BadStartLine(start.into()));
    }
    let headers = parse_headers(lines)?;
    let authority = headers.get(HDR_HOST).unwrap_or("").to_string();
    let body_len = content_length(&headers)?;
    let mut req = Request {
        method,
        path,
        authority,
        headers,
        body_len,
    };
    req.headers.remove(HDR_HOST);
    req.headers.remove(HDR_CONTENT_LENGTH);
    Ok(req)
}

/// Parse a response head.
pub fn decode_response_head(head: &[u8]) -> Result<Response, CodecError> {
    if head.len() > MAX_HEADER_BYTES {
        return Err(CodecError::HeadersTooLarge);
    }
    let text =
        std::str::from_utf8(head).map_err(|_| CodecError::BadStartLine("non-utf8".into()))?;
    let mut lines = text.split("\r\n");
    let start = lines.next().unwrap_or("");
    let mut parts = start.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(CodecError::BadStartLine(start.into()));
    }
    let status: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| CodecError::BadStartLine(start.into()))?;
    let headers = parse_headers(lines)?;
    let body_len = content_length(&headers)?;
    let mut resp = Response {
        status: StatusCode(status),
        headers,
        body_len,
    };
    resp.headers.remove(HDR_CONTENT_LENGTH);
    Ok(resp)
}

fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Result<HeaderMap, CodecError> {
    let mut headers = HeaderMap::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| CodecError::BadHeader(line.into()))?;
        if name.is_empty() || name.contains(' ') {
            return Err(CodecError::BadHeader(line.into()));
        }
        headers.append(name, value.trim());
    }
    Ok(headers)
}

fn content_length(headers: &HeaderMap) -> Result<u64, CodecError> {
    match headers.get(HDR_CONTENT_LENGTH) {
        None => Ok(0),
        Some(v) => v.parse().map_err(|_| CodecError::BadContentLength),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = Request::post("reviews", "/reviews/42", 1234)
            .with_header("x-request-id", "r-1")
            .with_header("x-mesh-priority", "high");
        let head = encode_request_head(&req);
        let end = find_head_end(&head).expect("complete head");
        assert_eq!(end, head.len());
        let back = decode_request_head(&head).unwrap();
        assert_eq!(back.method, Method::Post);
        assert_eq!(back.path, "/reviews/42");
        assert_eq!(back.authority, "reviews");
        assert_eq!(back.body_len, 1234);
        assert_eq!(back.headers.get("x-request-id"), Some("r-1"));
        assert_eq!(back.headers.get("x-mesh-priority"), Some("high"));
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::ok(999).with_header("x-upstream", "reviews-1");
        let head = encode_response_head(&resp);
        let back = decode_response_head(&head).unwrap();
        assert_eq!(back.status, StatusCode::OK);
        assert_eq!(back.body_len, 999);
        assert_eq!(back.headers.get("x-upstream"), Some("reviews-1"));
    }

    #[test]
    fn wire_size_matches_encoded_head() {
        // The simulated wire_size must equal real serialization + body.
        let req = Request::get("details", "/details/7").with_header("x-b3-traceid", "t-99");
        let head = encode_request_head(&req);
        assert_eq!(req.wire_size(), head.len() as u64 + req.body_len);
        let resp = Response::ok(12_345).with_header("x-b3-traceid", "t-99");
        let head = encode_response_head(&resp);
        assert_eq!(resp.wire_size(), head.len() as u64 + resp.body_len);
    }

    #[test]
    fn incremental_head_detection() {
        let req = Request::get("svc", "/x");
        let head = encode_request_head(&req);
        for cut in 0..head.len() - 1 {
            assert_eq!(find_head_end(&head[..cut]), None, "cut={cut}");
        }
        assert_eq!(find_head_end(&head), Some(head.len()));
    }

    #[test]
    fn rejects_malformed_start_lines() {
        assert!(matches!(
            decode_request_head(b"FETCH / HTTP/1.1\r\n\r\n"),
            Err(CodecError::BadStartLine(_))
        ));
        assert!(matches!(
            decode_request_head(b"GET noslash HTTP/1.1\r\n\r\n"),
            Err(CodecError::BadStartLine(_))
        ));
        assert!(matches!(
            decode_request_head(b"GET / SPDY/3\r\n\r\n"),
            Err(CodecError::BadStartLine(_))
        ));
        assert!(matches!(
            decode_response_head(b"HTTP/1.1 abc OK\r\n\r\n"),
            Err(CodecError::BadStartLine(_))
        ));
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(matches!(
            decode_request_head(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n"),
            Err(CodecError::BadHeader(_))
        ));
        assert!(matches!(
            decode_request_head(b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n"),
            Err(CodecError::BadHeader(_))
        ));
    }

    #[test]
    fn rejects_bad_content_length() {
        assert!(matches!(
            decode_request_head(b"GET / HTTP/1.1\r\ncontent-length: wat\r\n\r\n"),
            Err(CodecError::BadContentLength)
        ));
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let r = decode_request_head(b"GET /x HTTP/1.1\r\nhost: svc\r\n\r\n").unwrap();
        assert_eq!(r.body_len, 0);
    }

    #[test]
    fn header_value_whitespace_trimmed() {
        let r = decode_request_head(b"GET / HTTP/1.1\r\nx-a:   spaced   \r\n\r\n").unwrap();
        assert_eq!(r.headers.get("x-a"), Some("spaced"));
    }

    #[test]
    fn oversized_head_rejected() {
        let mut head = b"GET / HTTP/1.1\r\n".to_vec();
        head.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES));
        assert_eq!(decode_request_head(&head), Err(CodecError::HeadersTooLarge));
    }
}
