// Wire-framing edge cases for the line-delimited protocol: truncated request
// lines at every byte offset (with and without a trailing newline), oversized
// lines against a bounded read buffer, and interleaved slow writers. The
// server must answer malformed framing with exactly one clean error line (or
// a silent drop on mid-line EOF) and keep serving everyone else.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>

#include "common/socket.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace dfp::serve {
namespace {

/// Listener + engine with no model: framing behavior is independent of
/// scoring, so these tests skip training entirely.
struct FramingHarness {
    explicit FramingHarness(ServerConfig server_config = {})
        : engine(registry, EngineConfig{}),
          server(registry, engine, FixPort(server_config)) {
        const Status st = server.Start();
        EXPECT_TRUE(st.ok()) << st;
    }
    ~FramingHarness() {
        server.Stop();
        engine.Stop();
    }

    static ServerConfig FixPort(ServerConfig config) {
        config.port = 0;
        return config;
    }

    Result<Socket> Raw() { return TcpConnect("127.0.0.1", server.port()); }

    ModelRegistry registry;
    ScoringEngine engine;
    PredictionServer server;
};

TEST(FramingTest, TruncatedJsonAtEveryOffsetGetsOneErrorLine) {
    FramingHarness harness;
    const std::string request = "{\"op\":\"health\"}";
    // One connection, every proper prefix in turn: each truncation must be
    // answered with a single error line and the connection must stay usable
    // for the next request (a parse error is not a framing error).
    auto socket = harness.Raw();
    ASSERT_TRUE(socket.ok()) << socket.status();
    LineReader reader(*socket);
    std::string line;
    for (std::size_t cut = 1; cut < request.size(); ++cut) {
        ASSERT_TRUE(socket->SendAll(request.substr(0, cut) + "\n").ok());
        auto got = reader.ReadLine(&line);
        ASSERT_TRUE(got.ok()) << "offset " << cut << ": " << got.status();
        ASSERT_TRUE(*got) << "offset " << cut << ": connection dropped";
        EXPECT_EQ(line.rfind("{\"ok\":false,\"error\":", 0), 0u)
            << "offset " << cut << ": " << line;
    }
    // The full line still works on the same battered connection.
    ASSERT_TRUE(socket->SendAll(request + "\n").ok());
    auto got = reader.ReadLine(&line);
    ASSERT_TRUE(got.ok() && *got);
    EXPECT_EQ(line.rfind("{\"ok\":true", 0), 0u) << line;
}

TEST(FramingTest, EofMidLineAtEveryOffsetIsASilentDrop) {
    FramingHarness harness;
    const std::string request = "{\"op\":\"health\"}";
    for (std::size_t cut = 1; cut <= request.size(); ++cut) {
        // No newline ever arrives: the server must not dispatch the partial
        // line, and must not wedge the handler on it either.
        auto socket = harness.Raw();
        ASSERT_TRUE(socket.ok()) << "offset " << cut << ": " << socket.status();
        ASSERT_TRUE(socket->SendAll(request.substr(0, cut)).ok());
        socket->Close();
    }
    // All those half-requests left the server fully healthy.
    auto client = ServeClient::Connect("127.0.0.1", harness.server.port());
    ASSERT_TRUE(client.ok()) << client.status();
    auto health = client->Health();
    ASSERT_TRUE(health.ok()) << health.status();
}

TEST(FramingTest, OversizedLineGetsOneErrorThenClose) {
    ServerConfig server_config;
    server_config.max_line_bytes = 256;
    FramingHarness harness(server_config);

    auto socket = harness.Raw();
    ASSERT_TRUE(socket.ok()) << socket.status();
    // 4x the bound, never a newline: the buffer must stop growing at the
    // bound, not at our patience.
    ASSERT_TRUE(socket->SendAll(std::string(1024, 'x')).ok());
    LineReader reader(*socket);
    std::string line;
    auto got = reader.ReadLine(&line);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(*got);
    EXPECT_NE(line.find("\"error\":\"InvalidArgument\""), std::string::npos)
        << line;
    // After the one error line the server hangs up.
    got = reader.ReadLine(&line);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_FALSE(*got) << "connection survived an oversized line: " << line;

    // A well-behaved line under the bound is still served.
    auto client = ServeClient::Connect("127.0.0.1", harness.server.port());
    ASSERT_TRUE(client.ok());
    EXPECT_TRUE(client->Health().ok());
}

TEST(FramingTest, InterleavedSlowClientsDoNotCrossResponses) {
    FramingHarness harness;
    auto slow_a = harness.Raw();
    auto slow_b = harness.Raw();
    ASSERT_TRUE(slow_a.ok() && slow_b.ok());

    // Two clients trickle different requests one byte at a time, strictly
    // alternating, so the server is always holding two partial lines at once.
    const std::string request_a = "{\"op\":\"health\"}\n";
    const std::string request_b = "{\"op\":\"ready\"}\n";
    const std::size_t steps = std::max(request_a.size(), request_b.size());
    for (std::size_t i = 0; i < steps; ++i) {
        if (i < request_a.size()) {
            ASSERT_TRUE(slow_a->SendAll(request_a.substr(i, 1)).ok());
        }
        if (i < request_b.size()) {
            ASSERT_TRUE(slow_b->SendAll(request_b.substr(i, 1)).ok());
        }
    }
    LineReader reader_a(*slow_a);
    LineReader reader_b(*slow_b);
    std::string line_a;
    std::string line_b;
    auto got_a = reader_a.ReadLine(&line_a);
    auto got_b = reader_b.ReadLine(&line_b);
    ASSERT_TRUE(got_a.ok() && *got_a) << got_a.status();
    ASSERT_TRUE(got_b.ok() && *got_b) << got_b.status();
    // Each client gets its own op's response shape — no cross-wiring, no
    // concatenation of the two partial buffers.
    EXPECT_NE(line_a.find("\"serving\":"), std::string::npos) << line_a;
    EXPECT_NE(line_b.find("\"ready\":"), std::string::npos) << line_b;
    EXPECT_EQ(line_b.find("\"serving\":"), std::string::npos) << line_b;
}

}  // namespace
}  // namespace dfp::serve
