// The hcp_serve wire protocol: line-delimited JSON over stdin/stdout or a
// Unix socket.
//
// Requests are one strict-JSON object per line (RFC 8259, parsed by
// support/json — no trailing commas, no comments, no garbage):
//
//   {"id":"r1","op":"predict","design":"spam_filter","top_k":5}
//   {"id":"r2","op":"flow","design":"face_detection","seed":7}
//   {"id":"r3","op":"flow","key":"8d2fe64a0c1b9e77"}
//   {"id":"r4","op":"predict_map","design":"spam_filter"}
//   {"op":"status"}
//   {"op":"metrics"}
//   {"op":"shutdown"}
//
// A *blank line* is a flush marker: every pending request is answered, in
// request order, one JSON object per line. EOF and "shutdown" flush too.
//
// Fields:
//   op         required: "predict" | "flow" | "predict_map" | "status" |
//              "metrics" | "shutdown"
//   id         optional string, echoed verbatim in the response
//   design     bundled design name (predict, flow, predict_map)
//   key        16-hex flow-cache key (flow only; exclusive with design) —
//              answers straight from the cache, never computes
//   seed       optional non-negative integer, default 42 (flow, predict_map)
//   top_k      optional positive integer, default 10 (predict)
//   directives optional bool, default true (predict, flow, predict_map)
//
// predict_map places the design (no routing) and answers with the RUDY
// estimate of that placement, the same map `hcp_cli predict-map` prints; it
// needs no model. The response carries the full per-tile grid:
// "v_util"/"h_util" arrays of width*height doubles (row-major, %.17g —
// byte-identical across runs, the hcp-map artifact's values).
//
// Unknown members and wrong types are rejected per-request with an
// {"ok":false,"error":...} response — a malformed request can never take
// the daemon down, and never blocks the requests queued behind it.
//
// Responses open with the echoed id (when one was given) and an "ok" flag;
// everything after is op-specific. Doubles print with 17 significant
// digits, so responses are byte-identical across runs and thread counts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace hcp::serve {

enum class Op { Predict, Flow, PredictMap, Status, Metrics, Shutdown };

std::string_view opName(Op op);

struct Request {
  Op op = Op::Predict;
  std::string id;        ///< echoed verbatim; empty = absent
  std::string design;    ///< bundled design name (predict / flow / map)
  std::string cacheKey;  ///< 16-hex flow-cache key (flow-by-key)
  std::uint64_t seed = 42;
  std::uint64_t topK = 10;
  bool directives = true;
};

/// parseRequest result: on failure `error` is non-empty and `request.id`
/// still carries the id when the line was valid JSON with a string id — so
/// even a rejected request gets its response correlated.
struct ParseOutcome {
  bool ok = false;
  Request request;
  std::string error;
};

/// Parses and validates one request line. Never throws: every violation
/// (bad JSON, unknown op, missing/extra/mistyped fields) comes back as a
/// client-safe error message.
ParseOutcome parseRequest(std::string_view line);

/// Canonical identity of the *work* a request names — every field except
/// the id. Requests with equal work keys are answered from one computation
/// per batch and share a byte-identical response body.
std::string workKey(const Request& r);

/// `{"id":"<escaped>",` when the request carries an id, else `{`.
std::string responsePrefix(const Request& r);

/// The body of an error response: `"ok":false,"error":"<escaped>"}`.
std::string errorBody(std::string_view message);

}  // namespace hcp::serve
