#include "serve/protocol.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "obs/json.hpp"

namespace dfp::serve {

namespace {

Result<std::vector<ItemId>> ParseItems(const obs::JsonValue& value,
                                       const char* what) {
    if (!value.is_array()) {
        return Status::InvalidArgument(std::string(what) +
                                       " must be an array of item ids");
    }
    std::vector<ItemId> items;
    items.reserve(value.array().size());
    for (const obs::JsonValue& entry : value.array()) {
        if (!entry.is_number()) {
            return Status::InvalidArgument("item id must be a number");
        }
        const double v = entry.number();
        if (!(v >= 0.0) || v > static_cast<double>(std::numeric_limits<ItemId>::max()) ||
            v != std::floor(v)) {
            return Status::InvalidArgument("item id out of range");
        }
        items.push_back(static_cast<ItemId>(v));
    }
    return items;
}

void AppendIdField(std::ostringstream& out, const ServeRequest& request) {
    if (request.has_id) out << ",\"id\":" << request.id;
}

}  // namespace

Status ParseServeRequest(std::string_view line, ServeRequest* request) {
    auto parsed = obs::ParseJson(line);
    if (!parsed.ok()) return parsed.status();
    if (!parsed->is_object()) {
        return Status::InvalidArgument("request must be a JSON object");
    }
    if (const obs::JsonValue* id = parsed->Find("id"); id != nullptr) {
        if (!id->is_number() || id->number() < 0.0 ||
            id->number() != std::floor(id->number())) {
            return Status::InvalidArgument("\"id\" must be a non-negative integer");
        }
        request->id = static_cast<std::uint64_t>(id->number());
        request->has_id = true;
    }
    const obs::JsonValue* op = parsed->Find("op");
    if (op == nullptr || !op->is_string()) {
        return Status::InvalidArgument("request needs a string \"op\"");
    }
    if (const obs::JsonValue* dl = parsed->Find("deadline_ms"); dl != nullptr) {
        if (!dl->is_number()) {
            return Status::InvalidArgument("\"deadline_ms\" must be a number");
        }
        request->deadline_ms = dl->number();
    }

    const std::string& name = op->string();
    if (name == "predict") {
        request->op = ServeOp::kPredict;
        const obs::JsonValue* items = parsed->Find("items");
        if (items == nullptr) {
            return Status::InvalidArgument("predict needs \"items\"");
        }
        auto txn = ParseItems(*items, "\"items\"");
        if (!txn.ok()) return txn.status();
        request->batch.push_back(std::move(*txn));
    } else if (name == "predict_batch") {
        request->op = ServeOp::kPredictBatch;
        const obs::JsonValue* batch = parsed->Find("batch");
        if (batch == nullptr || !batch->is_array()) {
            return Status::InvalidArgument(
                "predict_batch needs a \"batch\" array of transactions");
        }
        request->batch.reserve(batch->array().size());
        for (const obs::JsonValue& txn_json : batch->array()) {
            auto txn = ParseItems(txn_json, "batch entry");
            if (!txn.ok()) return txn.status();
            request->batch.push_back(std::move(*txn));
        }
    } else if (name == "stats") {
        request->op = ServeOp::kStats;
    } else if (name == "reload") {
        request->op = ServeOp::kReload;
        if (const obs::JsonValue* path = parsed->Find("path"); path != nullptr) {
            if (!path->is_string()) {
                return Status::InvalidArgument("\"path\" must be a string");
            }
            request->path = path->string();
        }
    } else if (name == "health") {
        request->op = ServeOp::kHealth;
    } else if (name == "ready") {
        request->op = ServeOp::kReady;
    } else if (name == "metrics") {
        request->op = ServeOp::kMetrics;
    } else if (name == "trace_dump") {
        request->op = ServeOp::kTraceDump;
    } else {
        return Status::InvalidArgument("unknown op '" + name + "'");
    }
    return Status::Ok();
}

Result<ServeRequest> ParseServeRequest(std::string_view line) {
    ServeRequest request;
    const Status st = ParseServeRequest(line, &request);
    if (!st.ok()) return st;
    return request;
}

std::string RenderPredictResponse(const ServeRequest& request,
                                  const Prediction& prediction,
                                  double latency_ms) {
    std::ostringstream out;
    out << "{\"ok\":true,\"label\":" << prediction.label
        << ",\"version\":" << prediction.model_version << ",\"latency_ms\":";
    obs::WriteJsonNumber(out, latency_ms);
    AppendIdField(out, request);
    out << '}';
    return out.str();
}

std::string RenderPredictBatchResponse(const ServeRequest& request,
                                       const std::vector<Prediction>& predictions,
                                       double latency_ms) {
    std::ostringstream out;
    out << "{\"ok\":true,\"labels\":[";
    for (std::size_t i = 0; i < predictions.size(); ++i) {
        if (i > 0) out << ',';
        out << predictions[i].label;
    }
    const std::uint64_t version =
        predictions.empty() ? 0 : predictions.front().model_version;
    out << "],\"version\":" << version << ",\"latency_ms\":";
    obs::WriteJsonNumber(out, latency_ms);
    AppendIdField(out, request);
    out << '}';
    return out.str();
}

std::string RenderStatsResponse(const ServeRequest& request,
                                const obs::MetricsSnapshot& snapshot) {
    // A live mini run-report: every dfp.serve.* counter and gauge.
    std::ostringstream out;
    out << "{\"ok\":true,\"stats\":{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snapshot.counters) {
        if (name.rfind("dfp.serve.", 0) != 0) continue;
        if (!first) out << ',';
        first = false;
        obs::WriteJsonString(out, name);
        out << ':' << value;
    }
    out << "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : snapshot.gauges) {
        if (name.rfind("dfp.serve.", 0) != 0) continue;
        if (!first) out << ',';
        first = false;
        obs::WriteJsonString(out, name);
        out << ':';
        obs::WriteJsonNumber(out, value);
    }
    out << "}}";
    AppendIdField(out, request);
    out << '}';
    return out.str();
}

std::string RenderReloadResponse(const ServeRequest& request,
                                 std::uint64_t version) {
    std::ostringstream out;
    out << "{\"ok\":true,\"version\":" << version;
    AppendIdField(out, request);
    out << '}';
    return out.str();
}

std::string RenderHealthResponse(const ServeRequest& request, bool serving,
                                 std::uint64_t version, bool draining) {
    std::ostringstream out;
    out << "{\"ok\":true,\"serving\":" << (serving ? "true" : "false")
        << ",\"version\":" << version
        << ",\"draining\":" << (draining ? "true" : "false");
    AppendIdField(out, request);
    out << '}';
    return out.str();
}

std::string RenderReadyResponse(const ServeRequest& request, bool ready,
                                std::uint64_t version) {
    std::ostringstream out;
    out << "{\"ok\":true,\"ready\":" << (ready ? "true" : "false")
        << ",\"version\":" << version;
    AppendIdField(out, request);
    out << '}';
    return out.str();
}

std::string RenderMetricsResponse(const ServeRequest& request,
                                  std::string_view prometheus_text) {
    std::ostringstream out;
    out << "{\"ok\":true,\"metrics\":";
    obs::WriteJsonString(out, prometheus_text);
    AppendIdField(out, request);
    out << '}';
    return out.str();
}

std::string RenderTraceDumpResponse(const ServeRequest& request,
                                    std::string_view chrome_trace_json) {
    std::ostringstream out;
    out << "{\"ok\":true,\"trace\":" << chrome_trace_json;
    AppendIdField(out, request);
    out << '}';
    return out.str();
}

std::string RenderErrorResponse(const ServeRequest* request, const Status& status) {
    std::ostringstream out;
    out << "{\"ok\":false,\"error\":\"" << StatusCodeName(status.code())
        << "\",\"message\":";
    obs::WriteJsonString(out, status.message());
    if (request != nullptr && request->has_id) out << ",\"id\":" << request->id;
    out << '}';
    return out.str();
}

}  // namespace dfp::serve
