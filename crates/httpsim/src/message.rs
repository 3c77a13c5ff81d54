//! HTTP request/response model.
//!
//! The simulation never materializes body bytes: a [`Request`] or
//! [`Response`] carries its `body_len` and the network transfers that many
//! bytes; [`crate::codec`] serializes the same type byte for byte.

use crate::headers::{HeaderMap, HDR_CONTENT_LENGTH, HDR_HOST};
use serde::{Deserialize, Serialize};
use std::fmt;

/// HTTP request method (the subset the mesh cares about).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// Idempotent read.
    Get,
    /// Create / RPC-style call.
    Post,
    /// Replace.
    Put,
    /// Remove.
    Delete,
    /// Headers only.
    Head,
}

impl Method {
    /// The canonical token, e.g. `GET`.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
        }
    }

    /// Parse from a token (case-sensitive, per RFC 9110).
    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "HEAD" => Method::Head,
            _ => return None,
        })
    }

    /// Whether requests with this method are safe to retry without an
    /// idempotency guarantee from the application.
    pub fn is_idempotent(self) -> bool {
        !matches!(self, Method::Post)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP status code newtype.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 429 Too Many Requests (circuit breaker / overload).
    pub const TOO_MANY_REQUESTS: StatusCode = StatusCode(429);
    /// 500 Internal Server Error.
    pub const INTERNAL: StatusCode = StatusCode(500);
    /// 503 Service Unavailable (no healthy upstream).
    pub const UNAVAILABLE: StatusCode = StatusCode(503);
    /// 504 Gateway Timeout (upstream request timed out in the sidecar).
    pub const GATEWAY_TIMEOUT: StatusCode = StatusCode(504);

    /// 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// 5xx — counts against outlier detection in the sidecar.
    pub fn is_server_error(self) -> bool {
        (500..600).contains(&self.0)
    }

    /// Canonical reason phrase (subset).
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            204 => "No Content",
            404 => "Not Found",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An HTTP request. `body_len` stands in for the body.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Origin-form path, e.g. `/reviews/42`.
    pub path: String,
    /// Target authority (service name), e.g. `reviews`.
    pub authority: String,
    /// Headers.
    pub headers: HeaderMap,
    /// Body length in bytes.
    pub body_len: u64,
}

impl Request {
    /// A GET request to `authority` `path` with no body.
    pub fn get(authority: impl Into<String>, path: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            path: path.into(),
            authority: authority.into(),
            headers: HeaderMap::new(),
            body_len: 0,
        }
    }

    /// A POST with the given body size.
    pub fn post(authority: impl Into<String>, path: impl Into<String>, body_len: u64) -> Request {
        Request {
            method: Method::Post,
            path: path.into(),
            authority: authority.into(),
            headers: HeaderMap::new(),
            body_len,
        }
    }

    /// Builder-style header setter.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.set(name, value);
        self
    }

    /// Approximate bytes on the wire: request line + headers (incl. host &
    /// content-length) + blank line + body.
    pub fn wire_size(&self) -> u64 {
        let request_line = self.method.as_str().len() + 1 + self.path.len() + 11;
        let host = HDR_HOST.len() + 2 + self.authority.len() + 2;
        let cl = HDR_CONTENT_LENGTH.len() + 2 + digits(self.body_len) + 2;
        (request_line + host + cl + self.headers.wire_size() + 2) as u64 + self.body_len
    }
}

/// An HTTP response. `body_len` stands in for the body.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Headers.
    pub headers: HeaderMap,
    /// Body length in bytes.
    pub body_len: u64,
}

impl Response {
    /// A 200 response with the given body size.
    pub fn ok(body_len: u64) -> Response {
        Response {
            status: StatusCode::OK,
            headers: HeaderMap::new(),
            body_len,
        }
    }

    /// An error response with no body.
    pub fn error(status: StatusCode) -> Response {
        Response {
            status,
            headers: HeaderMap::new(),
            body_len: 0,
        }
    }

    /// Builder-style header setter.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.set(name, value);
        self
    }

    /// Approximate bytes on the wire.
    pub fn wire_size(&self) -> u64 {
        let status_line = 9 + 4 + self.status.reason().len() + 2; // HTTP/1.1 NNN Reason\r\n
        let cl = HDR_CONTENT_LENGTH.len() + 2 + digits(self.body_len) + 2;
        (status_line + cl + self.headers.wire_size() + 2) as u64 + self.body_len
    }
}

fn digits(mut n: u64) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_round_trip() {
        for m in [
            Method::Get,
            Method::Post,
            Method::Put,
            Method::Delete,
            Method::Head,
        ] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("get"), None, "methods are case-sensitive");
        assert_eq!(Method::parse("PATCH"), None);
    }

    #[test]
    fn idempotency() {
        assert!(Method::Get.is_idempotent());
        assert!(!Method::Post.is_idempotent());
        assert!(Method::Put.is_idempotent());
    }

    #[test]
    fn status_classes() {
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::OK.is_server_error());
        assert!(StatusCode::INTERNAL.is_server_error());
        assert!(StatusCode::UNAVAILABLE.is_server_error());
        assert!(!StatusCode::NOT_FOUND.is_server_error());
        assert_eq!(StatusCode::GATEWAY_TIMEOUT.reason(), "Gateway Timeout");
        assert_eq!(StatusCode(299).reason(), "Unknown");
    }

    #[test]
    fn request_builders() {
        let r = Request::get("reviews", "/reviews/1").with_header("x-mesh-priority", "high");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.authority, "reviews");
        assert_eq!(r.headers.get("x-mesh-priority"), Some("high"));
        assert_eq!(r.body_len, 0);
        let p = Request::post("db", "/write", 4096);
        assert_eq!(p.body_len, 4096);
    }

    #[test]
    fn wire_size_scales_with_body() {
        let small = Request::get("svc", "/a").wire_size();
        let big = Request::post("svc", "/a", 10_000).wire_size();
        assert!(big > small + 9_000);
        let resp_small = Response::ok(10).wire_size();
        let resp_big = Response::ok(100_000).wire_size();
        assert_eq!(resp_big - resp_small, 100_000 - 10 + 4); // +4 digits of content-length
    }

    #[test]
    fn digits_helper() {
        assert_eq!(digits(0), 1);
        assert_eq!(digits(9), 1);
        assert_eq!(digits(10), 2);
        assert_eq!(digits(99_999), 5);
    }

    #[test]
    fn response_error_has_no_body() {
        let r = Response::error(StatusCode::UNAVAILABLE);
        assert_eq!(r.body_len, 0);
        assert!(r.status.is_server_error());
    }
}
