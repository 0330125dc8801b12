// The surfer::Engine session front-end: option validation (every rejection
// EngineOptions::Validate makes), app-type naming in engine-capability
// errors, and null-argument handling.

#include <string>

#include <gtest/gtest.h>

#include "apps/network_ranking.h"
#include "apps/reverse_link_graph.h"
#include "core/engine.h"
#include "propagation/config.h"
#include "tests/test_fixtures.h"

namespace surfer {
namespace {

using testing_fixtures::EngineFixture;
using testing_fixtures::MakeEngineFixture;

const EngineFixture& Fixture() {
  static const EngineFixture* fixture = new EngineFixture(MakeEngineFixture());
  return *fixture;
}

EngineOptions OptionsFor(EngineKind kind, int iterations = 2) {
  EngineOptions options;
  options.engine = kind;
  options.propagation.iterations = iterations;
  return options;
}

// ------------------------------------------------ EngineOptions::Validate

TEST(EngineOptionsValidateTest, DefaultOptionsAreValidForEveryEngine) {
  for (EngineKind kind : {EngineKind::kAnalytic, EngineKind::kConcurrent,
                          EngineKind::kDistributed}) {
    EXPECT_TRUE(OptionsFor(kind).Validate().ok()) << EngineKindName(kind);
  }
}

TEST(EngineOptionsValidateTest, RejectsNegativeIterations) {
  EngineOptions options = OptionsFor(EngineKind::kAnalytic, -1);
  const Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("iterations"), std::string::npos);
}

TEST(EngineOptionsValidateTest, RejectsAnalyticWithWorkerCount) {
  EngineOptions options = OptionsFor(EngineKind::kAnalytic);
  options.runtime.max_workers = 4;
  const Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("max_workers"), std::string::npos);
}

TEST(EngineOptionsValidateTest, RejectsAnalyticWithChannelWindow) {
  EngineOptions options = OptionsFor(EngineKind::kAnalytic);
  options.runtime.channel_window_bytes = 4096;
  const Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("channel_window_bytes"), std::string::npos);
}

TEST(EngineOptionsValidateTest, RejectsAnalyticWithRuntimeTelemetry) {
  EngineOptions options = OptionsFor(EngineKind::kAnalytic);
  options.runtime.telemetry.enabled = true;
  const Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("telemetry"), std::string::npos);
}

TEST(EngineOptionsValidateTest, RejectsAnalyticWithRuntimeFaults) {
  EngineOptions options = OptionsFor(EngineKind::kAnalytic);
  options.runtime.faults.push_back({});
  const Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("sim_faults"), std::string::npos);
}

TEST(EngineOptionsValidateTest, RejectsSimFaultsOnRealEngines) {
  for (EngineKind kind :
       {EngineKind::kConcurrent, EngineKind::kDistributed}) {
    EngineOptions options = OptionsFor(kind);
    options.sim_faults.push_back({});
    const Status status = options.Validate();
    ASSERT_FALSE(status.ok()) << EngineKindName(kind);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    // The message points at the right knob for the selected engine.
    EXPECT_NE(status.message().find(EngineKindName(kind)), std::string::npos);
  }
}

TEST(EngineOptionsValidateTest, RejectsConcurrentWithZeroChannelWindow) {
  EngineOptions options = OptionsFor(EngineKind::kConcurrent);
  options.runtime.channel_window_bytes = 0;
  const Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("channel_window_bytes"), std::string::npos);
}

TEST(EngineOptionsValidateTest, RejectsDistributedKnobsOnOtherEngines) {
  for (EngineKind kind : {EngineKind::kAnalytic, EngineKind::kConcurrent}) {
    EngineOptions options = OptionsFor(kind);
    options.distributed.max_processes = 4;
    const Status status = options.Validate();
    ASSERT_FALSE(status.ok()) << EngineKindName(kind);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("max_processes"), std::string::npos);
  }
}

TEST(EngineOptionsValidateTest, RejectsRuntimeFaultsOnDistributed) {
  EngineOptions options = OptionsFor(EngineKind::kDistributed);
  options.runtime.faults.push_back({});
  const Status status = options.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("distributed.faults"), std::string::npos);
}

TEST(EngineOptionsValidateTest, AcceptsEngineSpecificKnobsOnTheirEngine) {
  EngineOptions concurrent = OptionsFor(EngineKind::kConcurrent);
  concurrent.runtime.max_workers = 4;
  concurrent.runtime.channel_window_bytes = 4096;
  concurrent.runtime.telemetry.enabled = true;
  EXPECT_TRUE(concurrent.Validate().ok());

  EngineOptions distributed = OptionsFor(EngineKind::kDistributed);
  distributed.distributed.max_processes = 3;
  EXPECT_TRUE(distributed.Validate().ok());

  EngineOptions analytic = OptionsFor(EngineKind::kAnalytic);
  analytic.sim_faults.push_back({});
  EXPECT_TRUE(analytic.Validate().ok());
}

// -------------------------------------------------------- Engine::Open

TEST(EngineSessionTest, OpenRejectsNullArguments) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO2);
  auto session = Engine::Open(nullptr, setup.placement, setup.topology);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineSessionTest, OpenRejectsInvalidOptions) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO2);
  EngineOptions options = OptionsFor(EngineKind::kAnalytic);
  options.runtime.max_workers = 2;
  auto session = Engine::Open(setup, options);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineSessionTest, SetupOverloadAppliesTheBundledSimOptions) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO2);
  auto session = Engine::Open(setup, OptionsFor(EngineKind::kAnalytic));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->options().sim.heartbeat_interval_s,
            setup.sim_options.heartbeat_interval_s);
  EXPECT_EQ(session->graph(), setup.graph);
  EXPECT_EQ(session->topology(), setup.topology);
}

TEST(EngineSessionTest, OneSessionRunsManyApps) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO4);
  auto session = Engine::Open(setup, OptionsFor(EngineKind::kAnalytic, 2));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto first = session->Run(NetworkRankingApp(f.graph.num_vertices()));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = session->Run(NetworkRankingApp(f.graph.num_vertices()));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(first->states.size(), second->states.size());
  for (size_t v = 0; v < first->states.size(); ++v) {
    ASSERT_EQ(first->states[v], second->states[v]) << "vertex " << v;
  }
}

// --------------------------------------- app-capability error reporting

TEST(EngineSessionTest, ConcurrentRejectionNamesTheAppAndSupportedEngines) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO2);
  auto session =
      Engine::Open(setup, OptionsFor(EngineKind::kConcurrent, 1));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto result = session->Run(ReverseLinkGraphApp());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // Names the offending app type (demangled) ...
  EXPECT_NE(result.status().message().find("ReverseLinkGraphApp"),
            std::string::npos)
      << result.status().message();
  // ... and lists the engines that can run it.
  EXPECT_NE(result.status().message().find("kAnalytic"), std::string::npos)
      << result.status().message();
}

TEST(EngineSessionTest, DistributedRejectionNamesTheAppAndSupportedEngines) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO2);
  auto session =
      Engine::Open(setup, OptionsFor(EngineKind::kDistributed, 1));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto result = session->Run(ReverseLinkGraphApp());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("ReverseLinkGraphApp"),
            std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("kAnalytic"), std::string::npos)
      << result.status().message();
  // RLG is not wire-serializable, so kConcurrent must NOT be listed as
  // supported.
  EXPECT_EQ(result.status().message().find("kConcurrent"), std::string::npos)
      << result.status().message();
}

TEST(EngineSessionTest,
     DistributedRejectionListsConcurrentForWireSerializableApps) {
  // An app whose Message is trivially copyable but whose VertexState is not:
  // the threaded runtime carries it, the multi-process engine (which also
  // replicates states) does not.
  struct WireOnlyApp {
    using VertexState = std::vector<double>;
    using Message = double;
    VertexState InitState(VertexId, std::span<const VertexId>) const {
      return {1.0};
    }
    void Transfer(VertexId, const VertexState&, std::span<const VertexId>,
                  PropagationEmitter<Message>&) const {}
    void Combine(VertexId, VertexState&, std::span<const VertexId>,
                 std::vector<Message>&) const {}
    size_t MessageBytes(const Message&) const { return sizeof(Message); }
    size_t StateBytes(const VertexState&) const { return sizeof(double); }
  };
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO2);
  auto session =
      Engine::Open(setup, OptionsFor(EngineKind::kDistributed, 1));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto result = session->Run(WireOnlyApp());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("WireOnlyApp"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("kConcurrent"), std::string::npos)
      << result.status().message();
}

TEST(EngineSessionTest, ExternalSimRejectionNamesTheSessionEngine) {
  const EngineFixture& f = Fixture();
  const BenchmarkSetup setup = f.Setup(OptimizationLevel::kO2);
  auto session =
      Engine::Open(setup, OptionsFor(EngineKind::kConcurrent, 1));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  JobSimulation sim(setup.topology, setup.sim_options);
  auto result =
      session->Run(NetworkRankingApp(f.graph.num_vertices()), &sim);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("kConcurrent"), std::string::npos)
      << result.status().message();
}

}  // namespace
}  // namespace surfer
