// NUMA topology detection (concurrent/topology.hpp): cpulist parsing,
// detection against canned sysfs fixture trees, the PPSCAN_NUMA_NODES
// emulation override, and — the satellite guarantee — that every degraded
// environment (no sysfs, malformed cpulists, empty nodes) falls back to
// the uniform single-node topology with a recorded reason, never an error.
#include "concurrent/topology.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/scoped_env.hpp"

namespace ppscan {
namespace {

namespace fs = std::filesystem;

/// A throwaway sysfs-style `node/` tree: write_node() lays down
/// node<i>/cpulist files, removed on destruction.
class FakeSysfs {
 public:
  FakeSysfs() {
    dir_ = fs::temp_directory_path() /
           ("ppscan_topo_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(dir_);
  }
  ~FakeSysfs() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void write_node(int id, const std::string& cpulist) {
    const fs::path node = dir_ / ("node" + std::to_string(id));
    fs::create_directories(node);
    std::ofstream(node / "cpulist") << cpulist << "\n";
  }

  [[nodiscard]] std::string path() const { return dir_.string(); }

 private:
  static int& counter() {
    static int n = 0;
    return n;
  }
  fs::path dir_;
};

using ppscan::testing::ScopedEnv;

TEST(NumaMode, ParsesAndPrints) {
  EXPECT_EQ(parse_numa_mode("auto"), NumaMode::Auto);
  EXPECT_EQ(parse_numa_mode("off"), NumaMode::Off);
  EXPECT_EQ(parse_numa_mode("interleave"), NumaMode::Interleave);
  EXPECT_THROW(parse_numa_mode("on"), std::invalid_argument);
  EXPECT_EQ(to_string(NumaMode::Auto), "auto");
  EXPECT_EQ(to_string(NumaMode::Off), "off");
  EXPECT_EQ(to_string(NumaMode::Interleave), "interleave");
}

TEST(ParseCpuList, AcceptsKernelShapes) {
  std::vector<int> cpus;
  ASSERT_TRUE(parse_cpu_list("0-3,7", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3, 7}));
  ASSERT_TRUE(parse_cpu_list("5", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{5}));
  ASSERT_TRUE(parse_cpu_list("9-10,0-1\n", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 9, 10}));
  // Overlaps dedupe, output is sorted.
  ASSERT_TRUE(parse_cpu_list("2-4,3,1", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{1, 2, 3, 4}));
  // A memoryless node has a blank cpulist: valid, empty.
  ASSERT_TRUE(parse_cpu_list("", &cpus));
  EXPECT_TRUE(cpus.empty());
  ASSERT_TRUE(parse_cpu_list("\n", &cpus));
  EXPECT_TRUE(cpus.empty());
}

TEST(ParseCpuList, RejectsMalformedText) {
  std::vector<int> cpus;
  EXPECT_FALSE(parse_cpu_list("3-1", &cpus));   // reversed range
  EXPECT_FALSE(parse_cpu_list("a-b", &cpus));   // not numbers
  EXPECT_FALSE(parse_cpu_list("1,,2", &cpus));  // empty token
  EXPECT_FALSE(parse_cpu_list("-1", &cpus));    // negative / half range
  EXPECT_FALSE(parse_cpu_list("2-", &cpus));
  EXPECT_FALSE(parse_cpu_list("1x", &cpus));    // trailing junk
}

TEST(DetectTopologyFrom, ReadsTwoSocketFixture) {
  FakeSysfs sysfs;
  sysfs.write_node(0, "0-3");
  sysfs.write_node(1, "4-7");
  const NumaTopology topo = detect_topology_from(sysfs.path());
  EXPECT_EQ(topo.source, "sysfs");
  EXPECT_TRUE(topo.fallback_reason.empty());
  EXPECT_FALSE(topo.emulated);
  ASSERT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.nodes[0].id, 0);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.nodes[1].id, 1);
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_FALSE(topo.uniform());
}

TEST(DetectTopologyFrom, SingleNodeIsUniform) {
  FakeSysfs sysfs;
  sysfs.write_node(0, "0-7");
  const NumaTopology topo = detect_topology_from(sysfs.path());
  EXPECT_TRUE(topo.fallback_reason.empty());
  EXPECT_TRUE(topo.uniform());
  ASSERT_EQ(topo.num_nodes(), 1);
  EXPECT_EQ(topo.nodes[0].cpus.size(), 8u);
}

TEST(DetectTopologyFrom, OddCpusetShapesAreKept) {
  // Non-contiguous per-node CPU sets (SMT pairs split across sockets).
  FakeSysfs sysfs;
  sysfs.write_node(0, "0,2,4,6");
  sysfs.write_node(1, "1,3,5,7");
  const NumaTopology topo = detect_topology_from(sysfs.path());
  ASSERT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{1, 3, 5, 7}));
}

TEST(DetectTopologyFrom, CpulessNodeIsDropped) {
  // Memory-only nodes (CXL expanders) have an empty cpulist; the executor
  // only cares about nodes it can run workers on.
  FakeSysfs sysfs;
  sysfs.write_node(0, "0-3");
  sysfs.write_node(1, "");
  sysfs.write_node(2, "4-7");
  const NumaTopology topo = detect_topology_from(sysfs.path());
  EXPECT_TRUE(topo.fallback_reason.empty());
  ASSERT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.nodes[0].id, 0);
  EXPECT_EQ(topo.nodes[1].id, 2);
}

TEST(DetectTopologyFrom, MissingTreeFallsBack) {
  const NumaTopology topo =
      detect_topology_from("/nonexistent/ppscan/sysfs/node");
  EXPECT_EQ(topo.source, "fallback");
  EXPECT_FALSE(topo.fallback_reason.empty());
  EXPECT_TRUE(topo.uniform());
  ASSERT_EQ(topo.num_nodes(), 1);  // never empty, never a throw
}

TEST(DetectTopologyFrom, MalformedCpulistFallsBack) {
  FakeSysfs sysfs;
  sysfs.write_node(0, "0-3");
  sysfs.write_node(1, "7-4");  // reversed: damaged sysfs
  const NumaTopology topo = detect_topology_from(sysfs.path());
  EXPECT_EQ(topo.source, "fallback");
  EXPECT_NE(topo.fallback_reason.find("node1"), std::string::npos)
      << topo.fallback_reason;
  EXPECT_TRUE(topo.uniform());
}

TEST(EmulatedTopology, SplitsCpusRoundRobin) {
  const NumaTopology topo = emulated_topology(2, {0, 1, 2, 3, 4});
  EXPECT_TRUE(topo.emulated);
  EXPECT_EQ(topo.source, "env");
  ASSERT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{1, 3}));
}

TEST(EmulatedTopology, HonorsNodeCountWithFewCpus) {
  // More nodes than CPUs: the requested structure is kept (that is what
  // emulation is for); surplus nodes share the whole CPU set.
  const NumaTopology topo = emulated_topology(8, {0, 1});
  ASSERT_EQ(topo.num_nodes(), 8);
  for (const NumaNode& node : topo.nodes) {
    EXPECT_FALSE(node.cpus.empty());
  }
  // Degenerate node counts still yield a usable single node.
  EXPECT_EQ(emulated_topology(0, {0, 1}).num_nodes(), 1);
  EXPECT_EQ(emulated_topology(3, {}).num_nodes(), 3);
}

TEST(DetectTopology, EnvOverrideEmulatesNodes) {
  const ScopedEnv env("PPSCAN_NUMA_NODES", "2");
  const NumaTopology topo = detect_topology();
  EXPECT_TRUE(topo.emulated);
  EXPECT_EQ(topo.source, "env");
  // The requested node count is honored even on a 1-CPU box, and every
  // node owns at least one CPU (shared when CPUs are scarce).
  EXPECT_EQ(topo.num_nodes(), 2);
  for (const NumaNode& node : topo.nodes) {
    EXPECT_FALSE(node.cpus.empty());
  }
}

TEST(DetectTopology, NeverFailsOnThisMachine) {
  // Whatever this machine looks like (bare metal, container, masked
  // sysfs), detection must produce a usable topology.
  const NumaTopology topo = detect_topology();
  ASSERT_GE(topo.num_nodes(), 1);
  EXPECT_TRUE(topo.source == "sysfs" || topo.source == "env" ||
              topo.source == "fallback")
      << topo.source;
}

TEST(PinThread, EmptyListIsRejectedGracefully) {
  EXPECT_FALSE(pin_thread_to_cpus({}));
  // Pinning to our own affinity set must succeed on Linux (and is a
  // harmless no-op for the remaining tests in this binary).
  const std::vector<int> mine = affinity_cpus();
  if (!mine.empty()) {
    EXPECT_TRUE(pin_thread_to_cpus(mine));
  }
}

}  // namespace
}  // namespace ppscan
