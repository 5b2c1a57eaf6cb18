#include "serve/server.hpp"

#include <chrono>

#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/reqtrace.hpp"

namespace dfp::serve {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

std::string RequestDispatcher::HandleLine(std::string_view line) {
    ServeRequest request;
    const Status parsed = ParseServeRequest(line, &request);
    if (!parsed.ok()) {
        obs::Registry::Get().GetCounter("dfp.serve.protocol_errors").Inc();
        return RenderErrorResponse(&request, parsed);
    }
    switch (request.op) {
        case ServeOp::kPredict:
            return HandlePredict(request);
        case ServeOp::kPredictBatch:
            return HandlePredictBatch(request);
        case ServeOp::kStats:
            return RenderStatsResponse(request, obs::Registry::Get().Snapshot());
        case ServeOp::kReload:
            return HandleReload(request);
        case ServeOp::kHealth:
            return RenderHealthResponse(request,
                                        registry_.current_version() != 0,
                                        registry_.current_version(), draining());
        case ServeOp::kReady:
            return RenderReadyResponse(request, Ready(),
                                       registry_.current_version());
        case ServeOp::kMetrics:
            // The same pure render the HTTP side-port uses — the two payloads
            // are identical by construction (tested in telemetry_test).
            return RenderMetricsResponse(
                request, obs::RenderPrometheus(obs::Registry::Get().Snapshot()));
        case ServeOp::kTraceDump:
            return RenderTraceDumpResponse(
                request, obs::RenderChromeTrace(engine_.trace_ring().Dump()));
    }
    return RenderErrorResponse(&request, Status::Internal("unhandled op"));
}

std::string RequestDispatcher::HandlePredict(const ServeRequest& request) {
    // The engine stamps the submit/score stages on this thread; the
    // dispatcher adds serialize and commits the trace.
    obs::RequestTrace trace;
    Result<Prediction> prediction = engine_.Predict(
        request.batch.front(), request.deadline_ms, /*cancel=*/nullptr, &trace);
    std::string response;
    trace.serialize_start_us = obs::NowMicros();
    if (prediction.ok()) {
        response = RenderPredictResponse(request, *prediction, trace.TotalMs());
    } else {
        response = RenderErrorResponse(&request, prediction.status());
    }
    trace.serialize_end_us = obs::NowMicros();
    engine_.CommitTrace(trace);
    return response;
}

std::string RequestDispatcher::HandlePredictBatch(const ServeRequest& request) {
    const auto start = Clock::now();
    auto predictions = engine_.PredictBatch(request.batch);
    if (!predictions.ok()) {
        return RenderErrorResponse(&request, predictions.status());
    }
    return RenderPredictBatchResponse(request, *predictions, MsSince(start));
}

std::string RequestDispatcher::HandleReload(const ServeRequest& request) {
    const std::string& path =
        request.path.empty() ? default_model_path_ : request.path;
    if (path.empty()) {
        return RenderErrorResponse(
            &request, Status::InvalidArgument(
                          "reload needs a \"path\" (no default configured)"));
    }
    auto reloaded = registry_.Reload(path);
    if (!reloaded.ok()) return RenderErrorResponse(&request, reloaded.status());
    return RenderReloadResponse(request, (*reloaded)->version);
}

PredictionServer::PredictionServer(ModelRegistry& registry, ScoringEngine& engine,
                                   ServerConfig config,
                                   std::string default_model_path)
    : dispatcher_(registry, engine, std::move(default_model_path)),
      config_(config) {}

PredictionServer::~PredictionServer() { Stop(); }

Status PredictionServer::Start() {
    auto listener = TcpListen(config_.port);
    if (!listener.ok()) return listener.status();
    listener_ = std::move(*listener);
    auto port = LocalPort(listener_);
    if (!port.ok()) return port.status();
    port_ = *port;
    if (config_.metrics_port >= 0) {
        obs::MetricsHttpConfig http;
        http.port = static_cast<std::uint16_t>(config_.metrics_port);
        // `GET /healthz` answers 503 until a model is installed and 503
        // again once draining starts — load balancers stop routing before
        // the drain cuts connections.
        http.ready_check = [this] { return dispatcher_.Ready(); };
        metrics_http_ = std::make_unique<obs::MetricsHttpServer>(http);
        const Status st = metrics_http_->Start();
        if (!st.ok()) {
            metrics_http_.reset();
            listener_.Close();
            return st;
        }
        DFP_LOG_INFO(StrFormat("dfp_serve: metrics on 127.0.0.1:%u/metrics",
                               unsigned{metrics_http_->port()}));
    }
    acceptor_ = std::thread([this] { AcceptLoop(); });
    DFP_LOG_INFO(StrFormat("dfp_serve: listening on 127.0.0.1:%u", unsigned{port_}));
    return Status::Ok();
}

std::uint16_t PredictionServer::metrics_port() const {
    return metrics_http_ != nullptr ? metrics_http_->port() : 0;
}

void PredictionServer::Stop() {
    std::lock_guard<std::mutex> stop_lock(stop_mu_);
    if (stopping_.exchange(true)) return;  // idempotent; serialized by stop_mu_
    dispatcher_.SetDraining(true);
    // 1. Stop accepting: shutdown unblocks accept() with EINVAL.
    listener_.ShutdownBoth();
    if (acceptor_.joinable()) acceptor_.join();
    // 2. Unblock idle connection readers. Handlers mid-request are not
    //    interrupted: SHUT_RD only EOFs *reads*, so the response of any
    //    request already being processed still flushes before the handler
    //    sees EOF and exits.
    {
        std::lock_guard<std::mutex> lock(connections_mu_);
        for (auto& connection : connections_) {
            connection->socket.ShutdownRead();
        }
    }
    // 3. Join handlers (each finishes its in-flight request first).
    std::vector<std::unique_ptr<Connection>> done;
    {
        std::lock_guard<std::mutex> lock(connections_mu_);
        done.swap(connections_);
    }
    for (auto& connection : done) {
        if (connection->thread.joinable()) connection->thread.join();
    }
    listener_.Close();
    if (metrics_http_ != nullptr) metrics_http_->Stop();
}

void PredictionServer::AcceptLoop() {
    auto& registry = obs::Registry::Get();
    for (;;) {
        auto accepted = TcpAccept(listener_);
        if (stopping_.load(std::memory_order_relaxed)) return;
        if (!accepted.ok()) {
            // Only "listener closed" ends the loop. Everything else —
            // ECONNABORTED, fd exhaustion, injected accept faults — kills at
            // most that one connection; the server must keep accepting
            // (an accept loop that exits on a transient error is an outage).
            if (accepted.status().code() == StatusCode::kUnavailable) return;
            registry.GetCounter("dfp.serve.accept_errors").Inc();
            continue;
        }
        registry.GetCounter("dfp.serve.connections").Inc();
        if (active_connections_.load(std::memory_order_relaxed) >=
            config_.max_connections) {
            // Connection-level shedding: answer once, close, never spawn.
            registry.GetCounter("dfp.serve.connections_shed").Inc();
            accepted->SendAll(
                RenderErrorResponse(
                    nullptr, Status::Unavailable("connection limit reached")) +
                "\n");
            continue;  // Socket destructor closes
        }
        active_connections_.fetch_add(1, std::memory_order_relaxed);
        ReapFinishedConnections();
        auto connection = std::make_unique<Connection>();
        connection->socket = std::move(*accepted);
        Connection* raw = connection.get();
        {
            std::lock_guard<std::mutex> lock(connections_mu_);
            connection->thread =
                std::thread([this, raw] { HandleConnection(raw); });
            connections_.push_back(std::move(connection));
        }
    }
}

void PredictionServer::ReapFinishedConnections() {
    // Joins handler threads whose connection has ended, so a long-running
    // server doesn't accumulate one zombie thread per past connection.
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->finished.load(std::memory_order_acquire)) {
            if ((*it)->thread.joinable()) (*it)->thread.join();
            it = connections_.erase(it);
        } else {
            ++it;
        }
    }
}

void PredictionServer::HandleConnection(Connection* connection) {
    auto& registry = obs::Registry::Get();
    if (config_.read_timeout_s > 0.0) {
        (void)connection->socket.SetRecvTimeout(config_.read_timeout_s);
    }
    if (config_.write_timeout_s > 0.0) {
        (void)connection->socket.SetSendTimeout(config_.write_timeout_s);
    }
    LineReader reader(connection->socket);
    std::string line;
    for (;;) {
        auto got = reader.ReadLine(&line, config_.max_line_bytes);
        if (!got.ok()) {
            if (got.status().code() == StatusCode::kInvalidArgument) {
                // Oversized request line: the buffer is bounded, so tell the
                // client why before dropping it (nothing of the line was
                // dispatched, so one error response is unambiguous).
                registry.GetCounter("dfp.serve.oversized_lines").Inc();
                (void)connection->socket.SendAll(
                    RenderErrorResponse(nullptr, got.status()) + "\n");
            } else if (got.status().code() == StatusCode::kUnavailable) {
                // Read deadline expired (slow-loris or an idle client under
                // read_timeout_s): reclaim the handler thread.
                registry.GetCounter("dfp.serve.conn_timeouts").Inc();
            }
            break;
        }
        if (!*got) break;  // clean EOF
        if (line.empty()) continue;
        if (const auto fp = DFP_FAILPOINT("serve.conn.handle"); fp) {
            fp.Sleep();
            if (fp.kind != FailpointKind::kDelay) {
                // Simulated handler crash: drop the connection without a
                // response — the client sees a transport error, never a
                // half-frame, and may safely retry.
                registry.GetCounter("dfp.serve.conn_faults").Inc();
                break;
            }
        }
        const std::string response = dispatcher_.HandleLine(line);
        const Status sent = connection->socket.SendAll(response + "\n");
        if (!sent.ok()) {
            if (sent.code() == StatusCode::kUnavailable) {
                registry.GetCounter("dfp.serve.conn_timeouts").Inc();
            }
            break;
        }
        if (stopping_.load(std::memory_order_relaxed)) break;
    }
    connection->socket.ShutdownBoth();
    active_connections_.fetch_sub(1, std::memory_order_relaxed);
    connection->finished.store(true, std::memory_order_release);
}

}  // namespace dfp::serve
