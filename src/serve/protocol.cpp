#include "serve/protocol.hpp"

#include <cmath>
#include <sstream>

#include "support/error.hpp"
#include "support/json.hpp"

namespace hcp::serve {

namespace json = support::json;

std::string_view opName(Op op) {
  switch (op) {
    case Op::Predict: return "predict";
    case Op::Flow: return "flow";
    case Op::PredictMap: return "predict_map";
    case Op::Status: return "status";
    case Op::Metrics: return "metrics";
    case Op::Shutdown: return "shutdown";
  }
  return "?";
}

namespace {

/// A JSON number that is a non-negative integer (protocol counts and
/// seeds); anything else — fractions, negatives, values beyond 2^53 where
/// doubles stop being exact — is a protocol error.
bool asU64(const json::Value& v, std::uint64_t& out) {
  if (!v.isNumber()) return false;
  const double d = v.number;
  if (!(d >= 0) || d != std::floor(d) || d > 9007199254740992.0) return false;
  out = static_cast<std::uint64_t>(d);
  return true;
}

bool isHexKey(const std::string& s) {
  if (s.size() != 16) return false;
  for (const char c : s)
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  return true;
}

ParseOutcome failWith(ParseOutcome outcome, std::string message) {
  outcome.ok = false;
  outcome.error = std::move(message);
  return outcome;
}

}  // namespace

ParseOutcome parseRequest(std::string_view line) {
  ParseOutcome outcome;
  json::Value root;
  try {
    root = json::parse(line);
  } catch (const Error& e) {
    return failWith(std::move(outcome), e.what());
  }
  if (!root.isObject())
    return failWith(std::move(outcome), "request must be a JSON object");

  // Pull the id first so every later rejection can still echo it.
  if (const json::Value* id = root.find("id")) {
    if (!id->isString())
      return failWith(std::move(outcome), "'id' must be a string");
    outcome.request.id = id->str;
  }

  const json::Value* op = root.find("op");
  if (op == nullptr)
    return failWith(std::move(outcome), "missing required field 'op'");
  if (!op->isString())
    return failWith(std::move(outcome), "'op' must be a string");
  Request& req = outcome.request;
  if (op->str == "predict") req.op = Op::Predict;
  else if (op->str == "flow") req.op = Op::Flow;
  else if (op->str == "predict_map") req.op = Op::PredictMap;
  else if (op->str == "status") req.op = Op::Status;
  else if (op->str == "metrics") req.op = Op::Metrics;
  else if (op->str == "shutdown") req.op = Op::Shutdown;
  else
    return failWith(std::move(outcome),
                    "unknown op '" + op->str +
                        "' (valid: predict, flow, predict_map, status, "
                        "metrics, shutdown)");

  const bool isWork = req.op == Op::Predict || req.op == Op::Flow ||
                      req.op == Op::PredictMap;
  for (const auto& [name, value] : root.object) {
    if (name == "id" || name == "op") continue;
    if (name == "design" && isWork) {
      if (!value.isString())
        return failWith(std::move(outcome), "'design' must be a string");
      req.design = value.str;
    } else if (name == "key" && req.op == Op::Flow) {
      if (!value.isString() || !isHexKey(value.str))
        return failWith(std::move(outcome),
                        "'key' must be a 16-char lowercase hex string");
      req.cacheKey = value.str;
    } else if (name == "seed" &&
               (req.op == Op::Flow || req.op == Op::PredictMap)) {
      if (!asU64(value, req.seed))
        return failWith(std::move(outcome),
                        "'seed' must be a non-negative integer");
    } else if (name == "top_k" && req.op == Op::Predict) {
      if (!asU64(value, req.topK) || req.topK == 0)
        return failWith(std::move(outcome),
                        "'top_k' must be a positive integer");
    } else if (name == "directives" && isWork) {
      if (!value.isBool())
        return failWith(std::move(outcome), "'directives' must be a bool");
      req.directives = value.boolean;
    } else {
      return failWith(std::move(outcome),
                      "unknown field '" + name + "' for op '" +
                          std::string(opName(req.op)) + "'");
    }
  }

  if (req.op == Op::Predict && req.design.empty())
    return failWith(std::move(outcome), "predict requires 'design'");
  if (req.op == Op::PredictMap && req.design.empty())
    return failWith(std::move(outcome), "predict_map requires 'design'");
  if (req.op == Op::Flow) {
    if (req.design.empty() == req.cacheKey.empty())
      return failWith(std::move(outcome),
                      "flow requires exactly one of 'design' or 'key'");
  }
  outcome.ok = true;
  return outcome;
}

std::string workKey(const Request& r) {
  std::ostringstream os;
  os << opName(r.op) << '|' << r.design << '|' << r.cacheKey << '|' << r.seed
     << '|' << r.topK << '|' << (r.directives ? 1 : 0);
  return std::move(os).str();
}

std::string responsePrefix(const Request& r) {
  if (r.id.empty()) return "{";
  return "{\"id\":\"" + json::escape(r.id) + "\",";
}

std::string errorBody(std::string_view message) {
  return "\"ok\":false,\"error\":\"" + json::escape(message) + "\"}";
}

}  // namespace hcp::serve
