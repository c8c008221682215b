// Tests for the HTTP gateway: request parsing, route dispatch (in process),
// and full client-server round trips over loopback sockets.

#include "src/gateway/service.h"

#include <gtest/gtest.h>

#include <thread>

#include "src/common/rng.h"
#include "src/graph/serialization.h"
#include "tests/test_util.h"

namespace optimus {
namespace {

TEST(HttpParseTest, SimpleGet) {
  HttpRequest request;
  ASSERT_TRUE(ParseHttpRequest("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n", &request));
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/stats");
  EXPECT_TRUE(request.query.empty());
  EXPECT_TRUE(request.body.empty());
}

TEST(HttpParseTest, QueryParameters) {
  HttpRequest request;
  ASSERT_TRUE(
      ParseHttpRequest("POST /invoke?name=vgg16&mode=fast HTTP/1.1\r\n\r\n", &request));
  EXPECT_EQ(request.path, "/invoke");
  EXPECT_EQ(request.query.at("name"), "vgg16");
  EXPECT_EQ(request.query.at("mode"), "fast");
}

TEST(HttpParseTest, BodyViaContentLength) {
  HttpRequest request;
  const std::string raw =
      "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello-extra-ignored";
  ASSERT_TRUE(ParseHttpRequest(raw, &request));
  EXPECT_EQ(request.body, "hello");
}

TEST(HttpParseTest, FuzzRandomBuffersNeverCrash) {
  // The parser faces raw network bytes; random garbage must be rejected (or
  // parsed) without crashing.
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t size = static_cast<size_t>(rng.UniformInt(0, 256));
    std::string raw;
    raw.reserve(size);
    for (size_t i = 0; i < size; ++i) {
      raw.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    // Half the trials include a header terminator to reach deeper code.
    if (rng.Bernoulli(0.5)) {
      raw += "\r\n\r\n";
    }
    HttpRequest request;
    try {
      ParseHttpRequest(raw, &request);
    } catch (const std::exception&) {
      // Malformed numeric headers may throw; that is acceptable rejection.
    }
  }
}

TEST(HttpParseTest, IncompleteRequestsReturnFalse) {
  HttpRequest request;
  EXPECT_FALSE(ParseHttpRequest("", &request));
  EXPECT_FALSE(ParseHttpRequest("GET /x HTTP/1.1\r\n", &request));  // No blank line.
  // Body shorter than Content-Length: wait for more bytes.
  EXPECT_FALSE(ParseHttpRequest("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", &request));
}

class GatewayServiceTest : public testing::Test {
 protected:
  GatewayServiceTest()
      : service_(&costs_, Options(), [this] { return virtual_time_; }) {}

  static PlatformOptions Options() {
    PlatformOptions options;
    options.num_nodes = 1;
    options.containers_per_node = 2;
    return options;
  }

  HttpResponse Post(const std::string& target, const std::string& body) {
    HttpRequest request;
    request.method = "POST";
    const size_t question = target.find('?');
    request.path = target.substr(0, question);
    if (question != std::string::npos) {
      const std::string query = target.substr(question + 1);
      const size_t equals = query.find('=');
      request.query[query.substr(0, equals)] = query.substr(equals + 1);
    }
    request.body = body;
    return service_.Handle(request);
  }

  HttpResponse Get(const std::string& path) {
    HttpRequest request;
    request.method = "GET";
    request.path = path;
    return service_.Handle(request);
  }

  std::string ModelBody(const Model& model) {
    const ModelFile file = SerializeModel(model);
    return std::string(file.begin(), file.end());
  }

  AnalyticCostModel costs_;
  double virtual_time_ = 0.0;
  OptimusHttpService service_;
};

TEST_F(GatewayServiceTest, DeployAndInvoke) {
  EXPECT_EQ(Post("/deploy?name=vgg11", ModelBody(TinyVgg(11))).status, 200);
  const HttpResponse cold = Post("/invoke?name=vgg11", "0.5,0.5,0.5");
  EXPECT_EQ(cold.status, 200);
  EXPECT_NE(cold.body.find("start=Cold"), std::string::npos);
  EXPECT_NE(cold.body.find("output="), std::string::npos);

  virtual_time_ = 5.0;
  const HttpResponse warm = Post("/invoke?name=vgg11", "0.5,0.5,0.5");
  EXPECT_NE(warm.body.find("start=Warm"), std::string::npos);
}

TEST_F(GatewayServiceTest, TransformReportedWithDonor) {
  Post("/deploy?name=vgg11", ModelBody(TinyVgg(11)));
  Post("/deploy?name=vgg16", ModelBody(TinyVgg(16)));
  Post("/deploy?name=vgg19", ModelBody(TinyVgg(19)));
  Post("/invoke?name=vgg11", "0.5");
  virtual_time_ = 1.0;
  Post("/invoke?name=vgg16", "0.5");
  virtual_time_ = 120.0;
  const HttpResponse response = Post("/invoke?name=vgg19", "0.5");
  EXPECT_NE(response.body.find("start=Transform"), std::string::npos);
  EXPECT_NE(response.body.find("donor="), std::string::npos);
}

TEST_F(GatewayServiceTest, ErrorPaths) {
  EXPECT_EQ(Post("/deploy?name=", "junk").status, 400);
  EXPECT_EQ(Post("/deploy?name=bad", "not a model file").status, 400);
  EXPECT_EQ(Post("/invoke?name=ghost", "0.5").status, 404);
  Post("/deploy?name=vgg11", ModelBody(TinyVgg(11)));
  EXPECT_EQ(Post("/deploy?name=vgg11", ModelBody(TinyVgg(11))).status, 409);
  EXPECT_EQ(Get("/nope").status, 404);
}

TEST_F(GatewayServiceTest, StatsReflectActivity) {
  Post("/deploy?name=vgg11", ModelBody(TinyVgg(11)));
  Post("/invoke?name=vgg11", "0.5");
  virtual_time_ = 2.0;
  Post("/invoke?name=vgg11", "0.5");
  const HttpResponse stats = Get("/stats");
  EXPECT_NE(stats.body.find("functions=1"), std::string::npos);
  EXPECT_NE(stats.body.find("warm=1"), std::string::npos);
  EXPECT_NE(stats.body.find("cold=1"), std::string::npos);
}

TEST_F(GatewayServiceTest, DemandRouteDumpsForecasterInput) {
  Post("/deploy?name=vgg11", ModelBody(TinyVgg(11)));
  // No harvest yet: the history is empty (slots=0).
  const HttpResponse empty = Get("/demand");
  EXPECT_EQ(empty.status, 200);
  EXPECT_NE(empty.body.find("\"slots\":0"), std::string::npos);

  Post("/invoke?name=vgg11", "0.5");
  virtual_time_ = 1.0;
  Post("/invoke?name=vgg11", "0.5");
  EXPECT_EQ(Post("/warming/enable", "").status, 200);
  EXPECT_EQ(Post("/warming/run", "").status, 200);  // Harvests one demand slot.
  const HttpResponse demand = Get("/demand");
  EXPECT_EQ(demand.status, 200);
  EXPECT_NE(demand.body.find("\"slots\":1"), std::string::npos);
  // The slot holds both invokes — exactly the series the forecaster saw.
  EXPECT_NE(demand.body.find("\"vgg11\":[2]"), std::string::npos);
}

TEST_F(GatewayServiceTest, WarmingRoutesToggleAndRun) {
  Post("/deploy?name=vgg11", ModelBody(TinyVgg(11)));
  const HttpResponse state = Get("/warming");
  EXPECT_EQ(state.status, 200);
  EXPECT_NE(state.body.find("\"enabled\":false"), std::string::npos);

  EXPECT_NE(Post("/warming/enable", "").body.find("\"enabled\":true"), std::string::npos);
  const HttpResponse run = Post("/warming/run", "");
  EXPECT_EQ(run.status, 200);
  EXPECT_NE(run.body.find("\"executed\":"), std::string::npos);
  const HttpResponse stats = Get("/stats");
  EXPECT_NE(stats.body.find("warming_enabled=1"), std::string::npos);
  EXPECT_NE(stats.body.find("warming_cycles=1"), std::string::npos);
  EXPECT_NE(Post("/warming/disable", "").body.find("\"enabled\":false"), std::string::npos);
  EXPECT_EQ(Post("/warming/hibernate", "").status, 404);
}

TEST_F(GatewayServiceTest, RebalanceDryRunPreviewsWithoutSwapping) {
  Post("/deploy?name=vgg11", ModelBody(TinyVgg(11)));
  Post("/deploy?name=vgg16", ModelBody(TinyVgg(16)));
  const uint64_t version = service_.platform().PlacementVersion();
  const HttpResponse dry = Post("/rebalance?dry_run=1", "");
  EXPECT_EQ(dry.status, 200);
  EXPECT_NE(dry.body.find("\"dry_run\":true"), std::string::npos);
  EXPECT_NE(dry.body.find("\"would_move\":"), std::string::npos);
  EXPECT_NE(dry.body.find("\"unchanged\":"), std::string::npos);
  // The serving table did not move.
  EXPECT_EQ(service_.platform().PlacementVersion(), version);

  const HttpResponse real = Post("/rebalance", "");
  EXPECT_NE(real.body.find("\"swapped\":true"), std::string::npos);
  EXPECT_EQ(service_.platform().PlacementVersion(), version + 1);
}

TEST_F(GatewayServiceTest, ConcurrentSameFunctionInvokesAllServedWarm) {
  Post("/deploy?name=vgg11", ModelBody(TinyVgg(11)));
  const HttpResponse reference = Post("/invoke?name=vgg11", "0.5,0.5,0.5");  // Warm it.
  ASSERT_EQ(reference.status, 200);

  // Overlapping requests for one warm function are all served warm by the
  // resident container, with the same output, and each counts exactly one
  // warm start.
  const size_t warm_before = service_.platform().WarmStarts();
  virtual_time_ = 5.0;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<HttpResponse> responses(kThreads);
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([this, i, &responses] {
      responses[static_cast<size_t>(i)] = Post("/invoke?name=vgg11", "0.5,0.5,0.5");
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const HttpResponse& response : responses) {
    ASSERT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("start=Warm"), std::string::npos);
    EXPECT_EQ(response.body.substr(response.body.find("output=")),
              reference.body.substr(reference.body.find("output=")));
  }
  EXPECT_EQ(service_.platform().WarmStarts(), warm_before + kThreads);
  // The node had a free slot, yet requests that found the one container
  // leased waited for it rather than cold-start a second copy.
  EXPECT_EQ(service_.platform().NumLiveContainers(), 1u);
}

TEST(GatewaySocketTest, EndToEndOverLoopback) {
  AnalyticCostModel costs;
  PlatformOptions options;
  options.containers_per_node = 2;
  OptimusHttpService service(&costs, options);
  service.Start(/*port=*/0);
  ASSERT_GT(service.port(), 0);

  const ModelFile file = SerializeModel(TinyMobileNet());
  const HttpResponse deploy =
      HttpFetch(service.port(), "POST", "/deploy?name=mobilenet",
                std::string(file.begin(), file.end()));
  EXPECT_EQ(deploy.status, 200);

  const HttpResponse invoke =
      HttpFetch(service.port(), "POST", "/invoke?name=mobilenet", "0.4,0.4,0.4,0.4");
  EXPECT_EQ(invoke.status, 200);
  EXPECT_NE(invoke.body.find("start=Cold"), std::string::npos);

  const HttpResponse stats = HttpFetch(service.port(), "GET", "/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("cold=1"), std::string::npos);

  service.Stop();
  EXPECT_THROW(HttpFetch(service.port(), "GET", "/stats"), std::runtime_error);
}

TEST(HttpParseTest, MalformedContentLengthThrows) {
  HttpRequest request;
  EXPECT_THROW(
      ParseHttpRequest("POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n", &request),
      std::runtime_error);
  EXPECT_THROW(ParseHttpRequest(
                   "POST /x HTTP/1.1\r\nContent-Length: 99999999999999\r\n\r\n", &request),
               std::runtime_error);
}

TEST(GatewaySocketTest, StartStopCycles) {
  AnalyticCostModel costs;
  PlatformOptions options;
  for (int cycle = 0; cycle < 3; ++cycle) {
    OptimusHttpService service(&costs, options);
    service.Start(0);
    EXPECT_GT(service.port(), 0);
    const HttpResponse response = HttpFetch(service.port(), "GET", "/functions");
    EXPECT_EQ(response.status, 200);
    service.Stop();
    service.Stop();  // Idempotent.
  }
}

TEST(GatewaySocketTest, DoubleStartThrows) {
  AnalyticCostModel costs;
  PlatformOptions options;
  OptimusHttpService service(&costs, options);
  service.Start(0);
  EXPECT_THROW(service.Start(0), std::runtime_error);
  service.Stop();
}

TEST(GatewaySocketTest, MultipleSequentialClients) {
  AnalyticCostModel costs;
  PlatformOptions options;
  OptimusHttpService service(&costs, options);
  service.Start(0);
  const ModelFile file = SerializeModel(TinyVgg(11));
  HttpFetch(service.port(), "POST", "/deploy?name=vgg11",
            std::string(file.begin(), file.end()));
  for (int i = 0; i < 5; ++i) {
    const HttpResponse response =
        HttpFetch(service.port(), "POST", "/invoke?name=vgg11", "0.5,0.5");
    EXPECT_EQ(response.status, 200);
  }
  const HttpResponse stats = HttpFetch(service.port(), "GET", "/stats");
  EXPECT_NE(stats.body.find("warm=4"), std::string::npos);
  service.Stop();
}

}  // namespace
}  // namespace optimus
