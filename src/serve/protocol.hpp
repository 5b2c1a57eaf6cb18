// Line-delimited JSON protocol of the prediction server.
//
// One request per line, one single-line JSON response per request. Ops:
//
//   {"op":"predict","items":[3,7,12],"deadline_ms":50}
//     -> {"ok":true,"label":1,"version":1,"latency_ms":0.42}
//   {"op":"predict_batch","batch":[[3,7],[1,4,9]]}
//     -> {"ok":true,"labels":[1,0],"version":1,"latency_ms":0.9}
//   {"op":"stats"}
//     -> {"ok":true,"stats":{"counters":{"dfp.serve.requests":12,...},
//                            "gauges":{"dfp.serve.model_version":1,...}}}
//   {"op":"reload","path":"m.dfp"}
//     -> {"ok":true,"version":2}
//   {"op":"health"}
//     -> {"ok":true,"serving":true,"version":1,"draining":false}
//   {"op":"ready"}
//     -> {"ok":true,"ready":true,"version":1}
//        (ready = a model is installed and the server is not draining; the
//        same predicate backs `GET /healthz` on the metrics side-port)
//   {"op":"metrics"}
//     -> {"ok":true,"metrics":"<Prometheus text exposition, escaped>"}
//        (byte-identical to the side-port `GET /metrics` body)
//   {"op":"trace_dump"}
//     -> {"ok":true,"trace":{"traceEvents":[...]}}
//        (Chrome trace-event JSON, loadable in chrome://tracing)
//
// Requests may carry an "id" (non-negative integer) echoed back in the
// response, errors included, for client-side correlation (ServeClient tags
// every request and rejects a reply carrying another id). Every error is
//   {"ok":false,"error":"<StatusCode name>","message":"...","id":...}
// where the id is present when the request line carried a readable one.
// with kUnavailable reserved for load shedding / drain (back off and retry).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "data/encoder.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"

namespace dfp::serve {

enum class ServeOp {
    kPredict,
    kPredictBatch,
    kStats,
    kReload,
    kHealth,
    kReady,
    kMetrics,
    kTraceDump,
};

struct ServeRequest {
    ServeOp op = ServeOp::kHealth;
    /// Transactions (1 entry for predict). Items are validated to be
    /// non-negative integers that fit ItemId; sorting/dedup happens in the
    /// engine.
    std::vector<std::vector<ItemId>> batch;
    double deadline_ms = -1.0;
    std::string path;  ///< reload target ("" = server's configured model path)
    std::uint64_t id = 0;
    bool has_id = false;
};

/// Parses one request line. InvalidArgument/ParseError on malformed input.
Result<ServeRequest> ParseServeRequest(std::string_view line);
/// The same, filling `*request` as far as parsing got: a request rejected
/// after its "id" was read keeps the id, so its error response echoes it.
Status ParseServeRequest(std::string_view line, ServeRequest* request);

/// Response renderers. All return a single line WITHOUT the trailing '\n'.
std::string RenderPredictResponse(const ServeRequest& request,
                                  const Prediction& prediction,
                                  double latency_ms);
std::string RenderPredictBatchResponse(const ServeRequest& request,
                                       const std::vector<Prediction>& predictions,
                                       double latency_ms);
std::string RenderStatsResponse(const ServeRequest& request,
                                const obs::MetricsSnapshot& snapshot);
std::string RenderReloadResponse(const ServeRequest& request,
                                 std::uint64_t version);
std::string RenderHealthResponse(const ServeRequest& request, bool serving,
                                 std::uint64_t version, bool draining);
std::string RenderReadyResponse(const ServeRequest& request, bool ready,
                                std::uint64_t version);
/// `prometheus_text` is embedded as an escaped JSON string so the client can
/// recover the exact exposition payload.
std::string RenderMetricsResponse(const ServeRequest& request,
                                  std::string_view prometheus_text);
/// `chrome_trace_json` must already be a valid JSON document
/// (RenderChromeTrace output); it is embedded verbatim.
std::string RenderTraceDumpResponse(const ServeRequest& request,
                                    std::string_view chrome_trace_json);
/// `request` may be null (unparseable line).
std::string RenderErrorResponse(const ServeRequest* request, const Status& status);

}  // namespace dfp::serve
