#include "graph/edge_list_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph_builder.hpp"
#include "support/scoped_env.hpp"
#include "util/graph_io_error.hpp"
#include "util/rng.hpp"

namespace ppscan {
namespace {

namespace fs = std::filesystem;
using ppscan::testing::ScopedEnv;

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Kind and line of the error reading `path` throws, under `threads`
/// workers (PPSCAN_THREADS); fails the test when it loads.
std::pair<GraphIoErrorKind, std::uint64_t> read_error(const std::string& path,
                                                      const char* threads) {
  const ScopedEnv env("PPSCAN_THREADS", threads);
  try {
    (void)read_edge_list_text(path);
  } catch (const GraphIoError& e) {
    return {e.kind(), e.line()};
  }
  ADD_FAILURE() << path << " loaded at " << threads << " workers";
  return {GraphIoErrorKind::kOpenFailed, GraphIoError::kNoLocation};
}

/// The serial reference reader: getline, the line rules, then the
/// definitions (symmetrize, drop self loops, deduplicate, sort each row).
/// It only has to read well-formed files.
std::pair<std::vector<EdgeId>, std::vector<VertexId>> reference_read(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::vector<VertexId>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::replace(line.begin(), line.end(), '\r', ' ');
    std::istringstream fields(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    fields >> u >> v;
    const auto top = static_cast<std::size_t>(std::max(u, v));
    if (rows.size() <= top) rows.resize(top + 1);
    if (u == v) continue;
    rows[u].push_back(static_cast<VertexId>(v));
    rows[v].push_back(static_cast<VertexId>(u));
  }
  std::vector<EdgeId> offsets{0};
  std::vector<VertexId> dst;
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    dst.insert(dst.end(), row.begin(), row.end());
    offsets.push_back(dst.size());
  }
  return {offsets, dst};
}

/// A seeded edge-list file of at least `min_bytes`, one string per line:
/// comments, blank lines, tabs, CRLF, padding, duplicate and reversed
/// edges, self loops and a hub (vertex 7). The caller joins the lines with
/// '\n' and leaves the last one unterminated.
std::vector<std::string> random_lines(std::size_t min_bytes,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> lines;
  std::vector<std::pair<VertexId, VertexId>> seen;
  std::size_t bytes = 0;
  while (bytes < min_bytes) {
    auto u = static_cast<VertexId>(rng.next_below(60000));
    auto v = static_cast<VertexId>(rng.next_below(60000));
    const std::uint64_t pick = rng.next_below(16);
    std::string line;
    if (pick == 0) {
      line = "# comment " + std::to_string(u);
    } else if (pick == 1) {
      line = "% comment";
    } else if (pick == 2) {
      line = "";
    } else if (pick == 3) {
      line = std::to_string(u) + "\t" + std::to_string(v) + "\r";
    } else if (pick == 4) {
      line = " \t" + std::to_string(u) + "  " + std::to_string(v) + " \t";
    } else if (pick == 5) {
      line = std::to_string(u) + " " + std::to_string(u);
    } else if (pick <= 7 && !seen.empty()) {
      std::tie(u, v) = seen[rng.next_below(seen.size())];
      if (rng.next_below(2) == 0) std::swap(u, v);
      line = std::to_string(u) + " " + std::to_string(v);
    } else if (pick <= 9) {
      line = "7 " + std::to_string(v);
    } else {
      line = std::to_string(u) + " " + std::to_string(v);
    }
    if (rng.next_below(4) == 0) seen.emplace_back(u, v);
    bytes += line.size() + 1;
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const auto& line : lines) text += line + "\n";
  if (!text.empty()) text.pop_back();  // no final newline
  return text;
}

class EdgeListIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ppscan-io-test-" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(EdgeListIoTest, TextRoundTrip) {
  const auto g = erdos_renyi(50, 200, 1);
  write_edge_list_text(g, path("g.txt"));
  const auto loaded = read_edge_list_text(path("g.txt"));
  EXPECT_EQ(loaded.num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded.num_edges(), g.num_edges());
  EXPECT_EQ(loaded.dst(), g.dst());
  EXPECT_EQ(loaded.offsets(), g.offsets());
}

TEST_F(EdgeListIoTest, TextReaderSkipsComments) {
  std::ofstream out(path("c.txt"));
  out << "# comment\n% another comment\n0 1\n\n1 2\n";
  out.close();
  const auto g = read_edge_list_text(path("c.txt"));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(EdgeListIoTest, TextReaderHandlesDuplicatesAndSelfLoops) {
  std::ofstream out(path("d.txt"));
  out << "0 1\n1 0\n2 2\n0 1\n";
  out.close();
  const auto g = read_edge_list_text(path("d.txt"));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_NO_THROW(g.validate());
}

TEST_F(EdgeListIoTest, TextReaderRejectsMissingFile) {
  EXPECT_THROW(read_edge_list_text(path("nope.txt")), std::runtime_error);
}

TEST_F(EdgeListIoTest, TextReaderRejectsDirectory) {
  // Opening a directory succeeds; reading it must fail, not load as empty.
  try {
    (void)read_edge_list_text(dir_.string());
    FAIL() << "a directory loaded as a graph";
  } catch (const GraphIoError& e) {
    EXPECT_EQ(e.kind(), GraphIoErrorKind::kOpenFailed) << e.what();
  }
}

TEST_F(EdgeListIoTest, TextReaderRejectsGarbage) {
  std::ofstream out(path("bad.txt"));
  out << "hello world\n";
  out.close();
  EXPECT_THROW(read_edge_list_text(path("bad.txt")), std::runtime_error);
}

TEST_F(EdgeListIoTest, TextReaderRejectsLineWithOneEndpoint) {
  std::ofstream out(path("half.txt"));
  out << "42\n";
  out.close();
  EXPECT_THROW(read_edge_list_text(path("half.txt")), std::runtime_error);
}

TEST_F(EdgeListIoTest, BinaryRoundTrip) {
  const auto g = erdos_renyi(100, 500, 2);
  write_csr_binary(g, path("g.bin"));
  const auto loaded = read_csr_binary(path("g.bin"));
  EXPECT_EQ(loaded.offsets(), g.offsets());
  EXPECT_EQ(loaded.dst(), g.dst());
}

TEST_F(EdgeListIoTest, BinaryRejectsBadMagic) {
  std::ofstream out(path("bad.bin"), std::ios::binary);
  out << "NOTMAGIC plus some bytes that are long enough for a header";
  out.close();
  EXPECT_THROW(read_csr_binary(path("bad.bin")), std::runtime_error);
}

TEST_F(EdgeListIoTest, BinaryRejectsTruncatedFile) {
  const auto g = erdos_renyi(50, 100, 3);
  write_csr_binary(g, path("t.bin"));
  // Truncate the body.
  const auto full = fs::file_size(path("t.bin"));
  fs::resize_file(path("t.bin"), full / 2);
  EXPECT_THROW(read_csr_binary(path("t.bin")), std::runtime_error);
}

TEST_F(EdgeListIoTest, EmptyGraphRoundTrips) {
  const auto g = GraphBuilder::from_edges({}, 4);
  write_csr_binary(g, path("e.bin"));
  const auto loaded = read_csr_binary(path("e.bin"));
  EXPECT_EQ(loaded.num_vertices(), 4u);
  EXPECT_EQ(loaded.num_edges(), 0u);
}

TEST_F(EdgeListIoTest, DefaultConstructedGraphRoundTrips) {
  // A default CsrGraph has no offset array at all; the writer must still
  // emit a well-formed zero-vertex file.
  const CsrGraph g;
  write_csr_binary(g, path("zero.bin"));
  const auto loaded = read_csr_binary(path("zero.bin"));
  EXPECT_EQ(loaded.num_vertices(), 0u);
  EXPECT_EQ(loaded.num_edges(), 0u);
}

TEST_F(EdgeListIoTest, SingleVertexRoundTrips) {
  const auto g = GraphBuilder::from_edges({}, 1);
  write_csr_binary(g, path("one.bin"));
  const auto loaded = read_csr_binary(path("one.bin"));
  EXPECT_EQ(loaded.num_vertices(), 1u);
  EXPECT_EQ(loaded.num_edges(), 0u);
  EXPECT_TRUE(loaded.neighbors(0).empty());
}

TEST_F(EdgeListIoTest, IsolatedVerticesAtBothEndsOfIdRangeRoundTrip) {
  // Vertices 0..2 and 7..9 are isolated; only the middle of the id range
  // has edges. Offsets must stay flat (not collapse) through a round trip.
  const auto g = GraphBuilder::from_edges({{3, 4}, {4, 5}, {5, 6}}, 10);
  write_csr_binary(g, path("iso.bin"));
  const auto loaded = read_csr_binary(path("iso.bin"));
  EXPECT_EQ(loaded.num_vertices(), 10u);
  EXPECT_EQ(loaded.num_edges(), 3u);
  EXPECT_EQ(loaded.degree(0), 0u);
  EXPECT_EQ(loaded.degree(9), 0u);
  EXPECT_EQ(loaded.offsets(), g.offsets());
  EXPECT_EQ(loaded.dst(), g.dst());
}

TEST_F(EdgeListIoTest, HeaderFieldsAre64BitLittleEndian) {
  // An arc count above 2^16 exercises more than two bytes of the 64-bit
  // arcs field; verify both header fields occupy 8 bytes on disk so
  // graphs beyond 2^32 arcs stay representable.
  const auto g = erdos_renyi(2000, 40000, 4);
  ASSERT_GT(g.num_arcs(), std::uint64_t{1} << 16);
  write_csr_binary(g, path("h.bin"));

  std::ifstream in(path("h.bin"), std::ios::binary);
  char header[24];
  in.read(header, sizeof(header));
  ASSERT_TRUE(in.good());
  std::uint64_t n = 0, arcs = 0;
  std::memcpy(&n, header + 8, sizeof(n));
  std::memcpy(&arcs, header + 16, sizeof(arcs));
  EXPECT_EQ(n, g.num_vertices());
  EXPECT_EQ(arcs, g.num_arcs());
  EXPECT_EQ(fs::file_size(path("h.bin")),
            24u + (n + 1) * sizeof(EdgeId) + arcs * sizeof(VertexId));
}

TEST_F(EdgeListIoTest, TextReaderRejectsNegativeIds) {
  std::ofstream out(path("neg.txt"));
  out << "0 1\n-1 2\n";
  out.close();
  EXPECT_THROW(read_edge_list_text(path("neg.txt")), std::runtime_error);
}

TEST_F(EdgeListIoTest, TextReaderRejectsIdsBeyondVertexRange) {
  std::ofstream out(path("big.txt"));
  out << "4294967296 1\n";  // 2^32 silently wrapped to 0 before validation
  out.close();
  EXPECT_THROW(read_edge_list_text(path("big.txt")), std::runtime_error);
}

TEST_F(EdgeListIoTest, TextReaderRejectsTrailingGarbage) {
  std::ofstream out(path("trail.txt"));
  out << "0 1 2\n";
  out.close();
  EXPECT_THROW(read_edge_list_text(path("trail.txt")), std::runtime_error);
}

TEST_F(EdgeListIoTest, TextReaderAcceptsWindowsLineEndings) {
  std::ofstream out(path("crlf.txt"), std::ios::binary);
  out << "0 1\r\n1 2\r\n";
  out.close();
  const auto g = read_edge_list_text(path("crlf.txt"));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(EdgeListIoTest, TextReaderRejectsEmbeddedNul) {
  // A NUL used to end the line early: "1 2\0 7" loaded as edge 1-2.
  write_bytes(path("nul-trail.txt"), std::string("0 1\n1 2\0 7\n", 11));
  EXPECT_EQ(read_error(path("nul-trail.txt"), "1"),
            std::make_pair(GraphIoErrorKind::kTrailingGarbage,
                           std::uint64_t{2}));
  write_bytes(path("nul-start.txt"), std::string("0 1\n1 2\n\0 7\n", 11));
  EXPECT_EQ(read_error(path("nul-start.txt"), "1"),
            std::make_pair(GraphIoErrorKind::kParseError, std::uint64_t{3}));
  write_bytes(path("nul-mid.txt"), std::string("3\0 4\n", 5));
  EXPECT_EQ(read_error(path("nul-mid.txt"), "1"),
            std::make_pair(GraphIoErrorKind::kParseError, std::uint64_t{1}));
}

TEST_F(EdgeListIoTest, TextReaderKeepsLineCountsWithoutFinalNewline) {
  write_bytes(path("tail.txt"), "0 1\n\n1 2\n2 x");
  EXPECT_EQ(read_error(path("tail.txt"), "1"),
            std::make_pair(GraphIoErrorKind::kParseError, std::uint64_t{4}));
  write_bytes(path("empty.txt"), "");
  EXPECT_EQ(read_edge_list_text(path("empty.txt")).num_vertices(), 0u);
}

// Sizes straddle the serial-size limit (1 MiB) and, above it, the chunk
// cuts of every worker count; the serial reference reader is the oracle.
TEST_F(EdgeListIoTest, TextReaderMatchesSerialReference) {
  const std::size_t kMiB = std::size_t{1} << 20;
  std::uint64_t seed = 11;
  for (const std::size_t bytes : {std::size_t{300}, kMiB - 4096, kMiB + 1,
                                  5 * kMiB / 2}) {
    const std::string file = path("diff-" + std::to_string(bytes) + ".txt");
    write_bytes(file, join_lines(random_lines(bytes, ++seed)));
    const auto [offsets, dst] = reference_read(file);
    for (const char* threads : {"1", "4", static_cast<const char*>(nullptr)}) {
      const ScopedEnv env("PPSCAN_THREADS", threads);
      const CsrGraph g = read_edge_list_text(file);
      EXPECT_EQ(g.offsets(), offsets) << bytes << " B, threads "
                                      << (threads ? threads : "default");
      EXPECT_EQ(g.dst(), dst) << bytes << " B, threads "
                              << (threads ? threads : "default");
    }
  }
}

// Two faults a quarter and three quarters into a 2.5 MiB file land in
// different chunks; the reader must report the earlier one, by kind and
// exact line, whichever chunk finishes first.
TEST_F(EdgeListIoTest, TextReaderReportsFirstBadLineInFileOrder) {
  const std::vector<std::pair<std::string, GraphIoErrorKind>> faults = {
      {"-5 6", GraphIoErrorKind::kNegativeId},
      {"5 4294967295", GraphIoErrorKind::kIdOutOfRange},
      {"five six", GraphIoErrorKind::kParseError},
      {"5 6 7", GraphIoErrorKind::kTrailingGarbage},
      {std::string("5 6\0", 4), GraphIoErrorKind::kTrailingGarbage},
  };
  const std::vector<std::string> clean =
      random_lines(5 * (std::size_t{1} << 20) / 2, 99);
  const std::size_t early = clean.size() / 4;
  const std::size_t late = 3 * clean.size() / 4;
  for (std::size_t a = 0; a < faults.size(); ++a) {
    const auto& first = faults[a];
    const auto& second = faults[(a + 1) % faults.size()];
    std::vector<std::string> lines = clean;
    lines[early] = first.first;
    lines[late] = second.first;
    const std::string file = path("faults-" + std::to_string(a) + ".txt");
    write_bytes(file, join_lines(lines));
    for (const char* threads : {"1", "4"}) {
      EXPECT_EQ(read_error(file, threads),
                std::make_pair(first.second, std::uint64_t{early + 1}))
          << "fault " << a << ", threads " << threads;
    }
    // Only the later fault left: it is reported with its own line.
    lines[early] = "5 6";
    write_bytes(file, join_lines(lines));
    EXPECT_EQ(read_error(file, "4"),
              std::make_pair(second.second, std::uint64_t{late + 1}));
  }
}

}  // namespace
}  // namespace ppscan
