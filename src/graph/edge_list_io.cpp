#include "graph/edge_list_io.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>

#include "concurrent/executor.hpp"
#include "concurrent/task_scheduler.hpp"
#include "graph/csr_validate.hpp"
#include "graph/graph_builder.hpp"
#include "util/env.hpp"
#include "util/graph_io_error.hpp"

namespace ppscan {
namespace {

constexpr char kMagic[8] = {'P', 'P', 'S', 'C', 'A', 'N', 'G', '1'};

// magic + n + arcs, all before the payload.
constexpr std::uint64_t kHeaderBytes =
    sizeof(kMagic) + 2 * sizeof(std::uint64_t);
constexpr std::uint64_t kVertexCountFieldOffset = sizeof(kMagic);
constexpr std::uint64_t kArcCountFieldOffset =
    sizeof(kMagic) + sizeof(std::uint64_t);

// Largest storable vertex id. kInvalidVertex (2^32 - 1) is reserved as a
// sentinel, and GraphBuilder computes n = max id + 1 in 32 bits, so ids
// stop one short of it.
constexpr unsigned long long kMaxVertexId = 0xFFFF'FFFEULL;

// Text inputs below this size are parsed on the calling thread with no
// Executor: starting workers would cost more than the parse, and the unit
// and fuzz tests load thousands of tiny files.
constexpr std::size_t kParallelMinBytes = std::size_t{1} << 20;

// Chunks per worker: a few each, so stealing evens out chunks whose lines
// parse at different speeds.
constexpr int kChunksPerWorker = 4;

bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }
bool is_digit(char c) { return static_cast<unsigned char>(c - '0') < 10; }
/// A line holds an edge unless it is empty or a '#' / '%' comment.
bool starts_edge(char c) { return c != '\n' && c != '#' && c != '%'; }

/// The rest of the line from `p`, for messages; a NUL byte shows as "\0".
std::string rest_of_line(const char* p) {
  std::string out;
  for (; *p != '\n'; ++p) {
    if (*p == '\0') {
      out += "\\0";
    } else {
      out += *p;
    }
  }
  return out;
}

/// Parses one vertex id starting at `cursor` (which is advanced past it),
/// rejecting negative ids, ids above the VertexId range, and non-numeric
/// text. The line ends in '\n', which stops every scan.
VertexId parse_vertex_id(const char*& cursor, const char* which,
                         const std::string& path, std::uint64_t lineno) {
  while (is_blank(*cursor)) ++cursor;
  if (*cursor == '-') {
    throw GraphIoError(GraphIoErrorKind::kNegativeId,
                       std::string(which) + " endpoint is negative",
                       path, GraphIoError::kNoLocation, lineno);
  }
  if (!is_digit(*cursor)) {
    throw GraphIoError(GraphIoErrorKind::kParseError,
                       std::string("expected ") + which +
                           " endpoint, got '" + rest_of_line(cursor) + "'",
                       path, GraphIoError::kNoLocation, lineno);
  }
  std::uint64_t value = 0;
  do {
    value = value * 10 + static_cast<unsigned char>(*cursor - '0');
    if (value > kMaxVertexId) {
      throw GraphIoError(GraphIoErrorKind::kIdOutOfRange,
                         std::string(which) + " endpoint exceeds the 32-bit "
                             "VertexId range (max " +
                             std::to_string(kMaxVertexId) + ")",
                         path, GraphIoError::kNoLocation, lineno);
    }
    ++cursor;
  } while (is_digit(*cursor));
  return static_cast<VertexId>(value);
}

/// The whole file, with a '\n' appended when the last line lacks one, so
/// every line (the last included) ends in '\n'.
struct TextBuffer {
  std::unique_ptr<char[]> bytes;
  std::size_t size = 0;
};

TextBuffer read_text(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw GraphIoError(GraphIoErrorKind::kOpenFailed, "cannot open edge list",
                       path);
  }
  // A regular file's size plus two bytes: one for the appended '\n' and
  // one so the read that meets end of file does not grow the buffer. A
  // pipe starts at 64 KiB and doubles.
  struct stat info {};
  std::size_t capacity = std::size_t{1} << 16;
  if (::fstat(fd, &info) == 0 && S_ISREG(info.st_mode)) {
    capacity = static_cast<std::size_t>(info.st_size) + 2;
  }
  TextBuffer text{std::make_unique_for_overwrite<char[]>(capacity), 0};
  for (;;) {
    if (text.size + 1 == capacity) {
      auto bigger = std::make_unique_for_overwrite<char[]>(2 * capacity);
      std::memcpy(bigger.get(), text.bytes.get(), text.size);
      text.bytes = std::move(bigger);
      capacity *= 2;
    }
    const ssize_t got = ::read(fd, text.bytes.get() + text.size,
                               capacity - 1 - text.size);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw GraphIoError(GraphIoErrorKind::kOpenFailed,
                         "cannot read edge list", path);
    }
    text.size += static_cast<std::size_t>(got);
  }
  ::close(fd);
  if (text.size > 0 && text.bytes[text.size - 1] != '\n') {
    text.bytes[text.size++] = '\n';
  }
  return text;
}

/// A line-aligned piece of the text, parsed by one task.
struct Chunk {
  const char* begin = nullptr;
  const char* end = nullptr;  // one past the chunk's last '\n'
  std::uint64_t lines = 0;       // lines in the chunk
  std::uint64_t edges = 0;       // of those, lines that hold an edge
  std::uint64_t first_line = 0;  // lines in all earlier chunks
  std::uint64_t first_edge = 0;  // edges in all earlier chunks
  std::optional<GraphIoError> error;
};

/// Cuts the text into up to `pieces` non-empty chunks, each ending just
/// after a '\n'.
std::vector<Chunk> cut_chunks(const TextBuffer& text, std::size_t pieces) {
  std::vector<Chunk> chunks;
  const char* const all = text.bytes.get();
  const char* const end = all + text.size;
  const char* begin = all;
  for (std::size_t k = 1; k <= pieces && begin < end; ++k) {
    const char* cut =
        std::find(std::max(begin, all + text.size * k / pieces), end, '\n');
    cut = cut == end ? end : cut + 1;
    if (cut > begin) {
      Chunk& chunk = chunks.emplace_back();
      chunk.begin = begin;
      chunk.end = cut;
    }
    begin = cut;
  }
  return chunks;
}

/// Counts the chunk's lines, and its lines that hold an edge, in one pass
/// the compiler vectorizes: a line starts at the chunk start and after
/// every '\n' but the chunk's last.
void count_lines(Chunk& chunk) {
  std::uint64_t lines = 1;  // the chunk's last byte is a '\n'
  auto edges = static_cast<std::uint64_t>(starts_edge(*chunk.begin));
  for (const char* p = chunk.begin; p + 1 < chunk.end; ++p) {
    const bool newline = p[0] == '\n';
    lines += static_cast<std::uint64_t>(newline);
    edges += static_cast<std::uint64_t>(newline & starts_edge(p[1]));
  }
  chunk.lines = lines;
  chunk.edges = edges;
}

/// Parses the chunk's lines into `out`, which has room for chunk.edges.
/// Throws the first malformed line's error, numbered in the whole file.
void parse_chunk(const Chunk& chunk, std::pair<VertexId, VertexId>* out,
                 const std::string& path) {
  std::uint64_t lineno = chunk.first_line;
  for (const char* p = chunk.begin; p < chunk.end;) {
    ++lineno;
    if (!starts_edge(*p)) {
      p = static_cast<const char*>(
              std::memchr(p, '\n', static_cast<std::size_t>(chunk.end - p))) +
          1;
      continue;
    }
    const VertexId u = parse_vertex_id(p, "first", path, lineno);
    const VertexId v = parse_vertex_id(p, "second", path, lineno);
    while (is_blank(*p)) ++p;
    if (*p != '\n') {
      throw GraphIoError(GraphIoErrorKind::kTrailingGarbage,
                         "unexpected text after the two endpoints: '" +
                             rest_of_line(p) + "'",
                         path, GraphIoError::kNoLocation, lineno);
    }
    ++p;
    *out++ = {u, v};
  }
}

/// Reads and parses the whole file into one flat edge array. The text and
/// the workers are gone when it returns, before the CSR is allocated.
EdgeList parse_edge_list(const std::string& path) {
  const TextBuffer text = read_text(path);
  const int workers = text.size < kParallelMinBytes ? 1 : default_threads();
  std::optional<Executor> executor;
  if (workers > 1) executor.emplace(workers);
  Executor* pool = executor ? &*executor : nullptr;

  std::vector<Chunk> chunks = cut_chunks(
      text, static_cast<std::size_t>(
                pool == nullptr ? 1 : workers * kChunksPerWorker));
  const VertexId count = checked_vertex_cast(chunks.size());
  run_index_tasks(pool, count, [&](VertexId c) { count_lines(chunks[c]); });
  std::uint64_t lines = 0;
  std::uint64_t edges = 0;
  for (Chunk& chunk : chunks) {
    chunk.first_line = lines;
    chunk.first_edge = edges;
    lines += chunk.lines;
    edges += chunk.edges;
  }

  EdgeList edge_list(edges);
  run_index_tasks(pool, count, [&](VertexId c) {
    try {
      parse_chunk(chunks[c], edge_list.data() + chunks[c].first_edge, path);
    } catch (const GraphIoError& e) {
      chunks[c].error = e;
    }
  });
  // Every chunk stops at its own first bad line, so the first chunk with
  // an error holds the first bad line of the file.
  for (const Chunk& chunk : chunks) {
    if (chunk.error) throw *chunk.error;
  }
  return edge_list;
}

}  // namespace

CsrGraph read_edge_list_text(const std::string& path) {
  EdgeList edges = parse_edge_list(path);
  try {
    CsrGraph graph = GraphBuilder::from_edges(std::move(edges));
#if defined(__GLIBC__)
    // The text, the edge list and the histograms are freed by now, about
    // twice the CSR's size. glibc keeps freed heap pages resident, so the
    // caller's next peak (a GS*-Index build) would stack on top of them.
    malloc_trim(0);
#endif
    return graph;
  } catch (const GraphIoError& e) {
    throw e.with_path(path);
  }
}

void write_edge_list_text(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw GraphIoError(GraphIoErrorKind::kOpenFailed,
                       "cannot open for writing", path);
  }
  out << "# ppscan edge list: " << graph.num_vertices() << " vertices, "
      << graph.num_edges() << " edges\n";
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    for (VertexId v : graph.neighbors(u)) {
      if (u < v) out << u << ' ' << v << '\n';
    }
  }
  if (!out) {
    throw GraphIoError(GraphIoErrorKind::kWriteFailed, "write failed", path);
  }
}

void write_csr_binary(const CsrGraph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw GraphIoError(GraphIoErrorKind::kOpenFailed,
                       "cannot open for writing", path);
  }
  out.write(kMagic, sizeof(kMagic));
  const std::uint64_t n = graph.num_vertices();
  const std::uint64_t arcs = graph.num_arcs();
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&arcs), sizeof(arcs));
  if (graph.offsets().empty()) {
    // Default-constructed graph: materialize the single 0 offset the
    // format requires instead of reading past an empty vector.
    const EdgeId zero = 0;
    out.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
  } else {
    out.write(reinterpret_cast<const char*>(graph.offsets().data()),
              static_cast<std::streamsize>((n + 1) * sizeof(EdgeId)));
  }
  out.write(reinterpret_cast<const char*>(graph.dst().data()),
            static_cast<std::streamsize>(arcs * sizeof(VertexId)));
  if (!out) {
    throw GraphIoError(GraphIoErrorKind::kWriteFailed, "write failed", path);
  }
}

CsrGraph read_csr_binary(const std::string& path, bool validate) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw GraphIoError(GraphIoErrorKind::kOpenFailed,
                       "cannot open binary graph", path);
  }
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  if (file_size < kHeaderBytes) {
    throw GraphIoError(GraphIoErrorKind::kTruncatedHeader,
                       "file is " + std::to_string(file_size) +
                           " bytes but the header needs " +
                           std::to_string(kHeaderBytes),
                       path, 0);
  }
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw GraphIoError(GraphIoErrorKind::kBadMagic,
                       "expected magic \"PPSCANG1\"", path, 0);
  }
  std::uint64_t n = 0, arcs = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof(n));
  in.read(reinterpret_cast<char*>(&arcs), sizeof(arcs));
  if (!in) {
    throw GraphIoError(GraphIoErrorKind::kTruncatedHeader,
                       "header fields unreadable", path,
                       kVertexCountFieldOffset);
  }

  // Header sanity before any allocation: a 16-byte corruption must not be
  // able to request terabytes. The field bounds are overflow-safe —
  // divisions, never multiplications of untrusted values. A field whose
  // implied array alone exceeds the whole file is an oversized header; a
  // header whose fields are individually plausible but whose total exceeds
  // the file means the payload was cut short.
  if (n > kMaxVertexId + 1) {
    throw GraphIoError(GraphIoErrorKind::kOversizedHeader,
                       "vertex count " + std::to_string(n) +
                           " exceeds the 32-bit id space",
                       path, kVertexCountFieldOffset);
  }
  if (n + 1 > file_size / sizeof(EdgeId)) {
    throw GraphIoError(GraphIoErrorKind::kOversizedHeader,
                       "vertex count " + std::to_string(n) +
                           " implies an offset array larger than the " +
                           std::to_string(file_size) + "-byte file",
                       path, kVertexCountFieldOffset);
  }
  if (arcs > file_size / sizeof(VertexId)) {
    throw GraphIoError(GraphIoErrorKind::kOversizedHeader,
                       "arc count " + std::to_string(arcs) +
                           " implies a dst array larger than the " +
                           std::to_string(file_size) + "-byte file",
                       path, kArcCountFieldOffset);
  }
  const std::uint64_t offsets_bytes = (n + 1) * sizeof(EdgeId);
  const std::uint64_t required =
      kHeaderBytes + offsets_bytes + arcs * sizeof(VertexId);
  if (required > file_size) {
    throw GraphIoError(GraphIoErrorKind::kTruncatedBody,
                       "header describes " + std::to_string(required) +
                           " bytes but the file holds " +
                           std::to_string(file_size),
                       path, file_size);
  }
  if (required < file_size) {
    throw GraphIoError(GraphIoErrorKind::kTrailingData,
                       std::to_string(file_size - required) +
                           " unexpected bytes after the CSR payload",
                       path, required);
  }

  std::vector<EdgeId> offsets(n + 1);
  std::vector<VertexId> dst(arcs);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets_bytes));
  if (!in) {
    throw GraphIoError(GraphIoErrorKind::kTruncatedBody,
                       "CSR payload cut short", path, kHeaderBytes);
  }
  try {
    if (validate) {
      // Fused read + structural validation (no symmetry check — see
      // CsrGraph::validate): the dst array is read in L2-sized chunks and
      // each chunk is checked while still cache-hot, so validation adds a
      // vectorized sweep over warm data rather than a second trip through
      // memory.
      CsrPayloadValidator checker(offsets, arcs);
      checker.check_offsets();
      // 512 KiB of dst values: small enough to stay resident in L2
      // between the read and the verify pass, large enough to amortize
      // the per-read syscall.
      constexpr EdgeId kChunkArcs = 1u << 17;
      for (EdgeId pos = 0; pos < arcs; pos += kChunkArcs) {
        const EdgeId count = std::min<EdgeId>(kChunkArcs, arcs - pos);
        in.read(reinterpret_cast<char*>(dst.data() + pos),
                static_cast<std::streamsize>(count * sizeof(VertexId)));
        if (!in) {
          throw GraphIoError(GraphIoErrorKind::kTruncatedBody,
                             "CSR payload cut short", path, kHeaderBytes);
        }
        checker.feed(dst.data() + pos, count);
      }
      checker.finish();
    } else {
      in.read(reinterpret_cast<char*>(dst.data()),
              static_cast<std::streamsize>(arcs * sizeof(VertexId)));
      if (!in) {
        throw GraphIoError(GraphIoErrorKind::kTruncatedBody,
                           "CSR payload cut short", path, kHeaderBytes);
      }
    }
    return CsrGraph(std::move(offsets), std::move(dst));
  } catch (const GraphIoError& e) {
    throw e.with_path(path);
  }
}

}  // namespace ppscan
