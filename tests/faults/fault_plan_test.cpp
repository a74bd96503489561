#include "faults/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/error.hpp"
#include "core/json_value.hpp"
#include "machines/registry.hpp"
#include "netsim/network.hpp"
#include "topo/topology.hpp"

namespace nodebench::faults {
namespace {

using machines::Machine;

constexpr const char* kDemoPlan = R"({
  "seed": 42,
  "faults": [
    {"type": "link-kill", "machine": "Perlmutter", "link": "host-gpu0"},
    {"type": "packet-loss", "rate": 0.05},
    {"type": "os-noise", "machine": "Frontier", "cv_factor": 2.0}
  ]
})";

TEST(JsonValue, ParsesScalarsArraysObjects) {
  const JsonValue v = JsonValue::parse(
      R"({"n": 1.5, "s": "hi", "b": true, "a": [1, 2], "o": {"k": null}})");
  EXPECT_DOUBLE_EQ(v.numberOr("n", 0.0), 1.5);
  EXPECT_EQ(v.stringOr("s", ""), "hi");
  ASSERT_NE(v.find("b"), nullptr);
  EXPECT_TRUE(v.find("b")->asBool());
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->asArray().size(), 2u);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse("{"), Error);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": }"), Error);
  EXPECT_THROW((void)JsonValue::parse("{} trailing"), Error);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": 1e}"), Error);
}

TEST(FaultPlan, ParsesDemoPlan) {
  const FaultPlan plan = FaultPlan::fromJson(kDemoPlan);
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.faults.size(), 3u);
  EXPECT_EQ(plan.faults[0].type, FaultType::LinkKill);
  EXPECT_EQ(plan.faults[0].machine, "Perlmutter");
  EXPECT_EQ(plan.faults[0].link, "host-gpu0");
  EXPECT_EQ(plan.faults[1].type, FaultType::PacketLoss);
  EXPECT_DOUBLE_EQ(plan.faults[1].rate, 0.05);
  EXPECT_EQ(plan.faults[1].machine, "all");  // default blast radius
  EXPECT_DOUBLE_EQ(plan.faults[2].cvFactor, 2.0);
}

TEST(FaultPlan, RejectsOutOfRangeParameters) {
  EXPECT_THROW(
      (void)FaultPlan::fromJson(R"({"faults": [{"type": "packet-loss",
                                                "rate": 1.0}]})"),
      Error);
  EXPECT_THROW(
      (void)FaultPlan::fromJson(R"({"faults": [{"type": "link-degrade",
                                                "bandwidth_factor": 0}]})"),
      Error);
  EXPECT_THROW(
      (void)FaultPlan::fromJson(R"({"faults": [{"type": "gpu-ecc-stall",
                                                "added_latency_us": -1}]})"),
      Error);
  EXPECT_THROW((void)FaultPlan::fromJson(R"({"faults": [{"type": "nope"}]})"),
               Error);
  EXPECT_THROW((void)FaultPlan::fromJson(R"({"faults": [{}]})"), Error);
}

TEST(FaultPlan, LinkKillRemovesHostGpuLink) {
  const FaultPlan plan = FaultPlan::fromJson(kDemoPlan);
  const Machine& perlmutter = machines::byName("Perlmutter");
  const Machine faulted = plan.applyToMachine(perlmutter);
  // The pristine registry machine still resolves the link...
  EXPECT_NO_THROW((void)perlmutter.topology.hostGpuLink(
      perlmutter.topology.gpu(topo::GpuId{0}).socket, topo::GpuId{0}));
  // ...the faulted copy does not.
  EXPECT_THROW((void)faulted.topology.hostGpuLink(
                   faulted.topology.gpu(topo::GpuId{0}).socket,
                   topo::GpuId{0}),
               NotFoundError);
}

TEST(FaultPlan, UntouchedMachineComesBackIdentical) {
  const FaultPlan plan = FaultPlan::fromJson(
      R"({"faults": [{"type": "os-noise", "machine": "Frontier",
                      "cv_factor": 3.0}]})");
  const Machine& summit = machines::byName("Summit");
  const Machine copy = plan.applyToMachine(summit);
  EXPECT_DOUBLE_EQ(copy.hostMemory.cvSingle, summit.hostMemory.cvSingle);
  EXPECT_DOUBLE_EQ(copy.hostMpi.cv, summit.hostMpi.cv);
  EXPECT_FALSE(plan.touches("Summit"));
  EXPECT_TRUE(plan.touches("Frontier"));
}

TEST(FaultPlan, OsNoiseScalesCvButSaturatesBelowHalf) {
  const FaultPlan plan = FaultPlan::fromJson(
      R"({"faults": [{"type": "os-noise", "cv_factor": 1000.0}]})");
  const Machine faulted = plan.applyToMachine(machines::byName("Frontier"));
  // NoiseModel requires cv < 0.5; a noise storm saturates instead of
  // violating the contract.
  EXPECT_LT(faulted.hostMpi.cv, 0.5);
  EXPECT_GT(faulted.hostMpi.cv, machines::byName("Frontier").hostMpi.cv);
}

TEST(FaultPlan, LinkDegradeScalesBandwidthAndAddsLatency) {
  const FaultPlan plan = FaultPlan::fromJson(
      R"({"faults": [{"type": "link-degrade", "machine": "Perlmutter",
                      "link": "host-gpu0", "bandwidth_factor": 0.5,
                      "added_latency_us": 1.0}]})");
  const Machine& m = machines::byName("Perlmutter");
  const Machine faulted = plan.applyToMachine(m);
  const topo::SocketId socket = m.topology.gpu(topo::GpuId{0}).socket;
  const topo::Link& before = m.topology.hostGpuLink(socket, topo::GpuId{0});
  const topo::Link& after =
      faulted.topology.hostGpuLink(socket, topo::GpuId{0});
  EXPECT_NEAR(after.bandwidth.inGBps(), before.bandwidth.inGBps() * 0.5,
              1e-9);
  EXPECT_NEAR(after.latency.us(), before.latency.us() + 1.0, 1e-12);
}

TEST(FaultPlan, NetworkFaultsComposeAndSeedDerivesFromMachine) {
  const FaultPlan plan = FaultPlan::fromJson(
      R"({"seed": 7, "faults": [
            {"type": "packet-loss", "rate": 0.1},
            {"type": "packet-loss", "rate": 0.1},
            {"type": "nic-brownout", "bandwidth_factor": 0.5,
             "added_latency_us": 2.0}]})");
  const Machine& m = machines::byName("Frontier");
  mpisim::InterNodeParams base = netsim::networkFor(m);
  mpisim::InterNodeParams net = base;
  plan.applyToNetwork(m.info.name, net);
  // Two independent 10% loss processes: survive both -> 19% combined.
  EXPECT_NEAR(net.packetLossRate, 0.19, 1e-12);
  EXPECT_NEAR(net.injectionBandwidth.inGBps(),
              base.injectionBandwidth.inGBps() * 0.5, 1e-9);
  EXPECT_NEAR(net.nicOverhead.us(), base.nicOverhead.us() + 2.0, 1e-12);
  // Distinct machines get distinct (but deterministic) loss streams.
  mpisim::InterNodeParams other = base;
  plan.applyToNetwork("Summit", other);
  EXPECT_NE(net.faultSeed, other.faultSeed);
  mpisim::InterNodeParams again = base;
  plan.applyToNetwork(m.info.name, again);
  EXPECT_EQ(net.faultSeed, again.faultSeed);
}

TEST(FaultPlan, FlakyCellDrawsAreDeterministicAndRateZeroNeverFails) {
  const FaultPlan plan = FaultPlan::fromJson(
      R"({"seed": 99, "faults": [{"type": "flaky-cell", "rate": 0.5}]})");
  int failures = 0;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const bool a = plan.shouldFailAttempt("Frontier", "kernel launch",
                                          attempt);
    const bool b = plan.shouldFailAttempt("Frontier", "kernel launch",
                                          attempt);
    EXPECT_EQ(a, b) << "attempt " << attempt;  // pure function
    failures += a ? 1 : 0;
  }
  // rate 0.5 over 64 attempts: both outcomes must occur.
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 64);

  const FaultPlan clean = FaultPlan::fromJson(R"({"faults": []})");
  EXPECT_FALSE(clean.shouldFailAttempt("Frontier", "kernel launch", 0));
}

TEST(FaultPlan, MachineMatchingIsCaseInsensitive) {
  const FaultPlan plan = FaultPlan::fromJson(
      R"({"faults": [{"type": "os-noise", "machine": "frontier",
                      "cv_factor": 2.0}]})");
  EXPECT_TRUE(plan.touches("Frontier"));
}

TEST(FaultPlan, SummaryListsEveryFault) {
  const FaultPlan plan = FaultPlan::fromJson(kDemoPlan);
  const std::string s = plan.summary();
  EXPECT_NE(s.find("link-kill"), std::string::npos) << s;
  EXPECT_NE(s.find("packet-loss"), std::string::npos) << s;
  EXPECT_NE(s.find("os-noise"), std::string::npos) << s;
  EXPECT_NE(s.find("seed 42"), std::string::npos) << s;
}

TEST(FaultPlan, LoadMissingFileThrows) {
  EXPECT_THROW((void)FaultPlan::load("/nonexistent/plan.json"), Error);
}

// --- Input-boundary hardening (the fuzz contract, tested branch by
// branch; see tests/fuzz/ for the corpus + mutation sweeps) --------------

TEST(JsonHardening, NestingDepthIsBounded) {
  // 64 levels parse; 65 are refused with a diagnostic, not a stack
  // overflow.
  const std::string ok(64, '[');
  EXPECT_NO_THROW((void)JsonValue::parse(ok + std::string(64, ']')));
  const std::string deep(65, '[');
  try {
    (void)JsonValue::parse(deep + std::string(65, ']'));
    FAIL() << "expected a depth error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonHardening, RawControlCharactersInStringsAreRejected) {
  EXPECT_THROW((void)JsonValue::parse("{\"a\": \"x\ny\"}"), Error);
  EXPECT_THROW((void)JsonValue::parse(std::string("[\"\x01\"]")), Error);
  // The escaped forms stay legal.
  EXPECT_NO_THROW((void)JsonValue::parse(R"({"a": "x\ny"})"));
}

TEST(JsonHardening, InvalidUtf8InStringsIsRejected) {
  EXPECT_THROW((void)JsonValue::parse("[\"\xff\xfe\"]"), Error);
  EXPECT_THROW((void)JsonValue::parse("[\"\xc0\xaf\"]"), Error);  // overlong
  EXPECT_THROW((void)JsonValue::parse("[\"\xed\xa0\x80\"]"), Error);  // surrogate
  EXPECT_NO_THROW((void)JsonValue::parse("[\"caf\xc3\xa9\"]"));
}

TEST(JsonHardening, OversizedDocumentIsRejected) {
  // Build a >64 MiB document cheaply: one long string literal.
  std::string doc = "[\"";
  doc.append((64u << 20) + 16, 'a');
  doc += "\"]";
  EXPECT_THROW((void)JsonValue::parse(doc), Error);
}

TEST(FaultPlanHardening, LoadRejectsOversizedPlanFile) {
  const std::string path =
      ::testing::TempDir() + "nodebench_oversized_plan.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"seed\": 1, \"comment\": \"";
    const std::string filler(1u << 16, 'x');
    for (int i = 0; i < 20; ++i) {  // ~1.3 MiB > the 1 MiB plan cap
      out << filler;
    }
    out << "\"}";
  }
  try {
    (void)FaultPlan::load(path);
    FAIL() << "expected a size-cap error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte limit"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nodebench::faults
