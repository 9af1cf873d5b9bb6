#include "graph/io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "graph/builder.hpp"
#include "util/check.hpp"

namespace eta::graph {

namespace {

void WriteRaw(std::ofstream& out, const void* data, size_t bytes) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  ETA_CHECK(out.good());
}

}  // namespace

void WriteGaloisGr(const Csr& csr, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ETA_CHECK(out.is_open());

  const uint64_t version = 1;
  const uint64_t edge_data_size = csr.HasWeights() ? sizeof(Weight) : 0;
  const uint64_t num_nodes = csr.NumVertices();
  const uint64_t num_edges = csr.NumEdges();
  WriteRaw(out, &version, 8);
  WriteRaw(out, &edge_data_size, 8);
  WriteRaw(out, &num_nodes, 8);
  WriteRaw(out, &num_edges, 8);

  // Galois stores *end* offsets (row_offsets[1..n]) as 64-bit values.
  for (uint64_t v = 0; v < num_nodes; ++v) {
    uint64_t end = csr.RowEnd(static_cast<VertexId>(v));
    WriteRaw(out, &end, 8);
  }
  WriteRaw(out, csr.ColIndices().data(), num_edges * sizeof(VertexId));
  if (num_edges % 2 == 1) {
    // Destination array is padded to an 8-byte boundary.
    const uint32_t pad = 0;
    WriteRaw(out, &pad, 4);
  }
  if (csr.HasWeights()) {
    WriteRaw(out, csr.Weights().data(), num_edges * sizeof(Weight));
  }
}

std::optional<Csr> TryReadGaloisGr(const std::string& path, std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<Csr> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::error_code ec;
  const uint64_t file_bytes = std::filesystem::file_size(path, ec);
  if (ec) return fail("cannot stat: " + ec.message());
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return fail("cannot open");
  auto read = [&](void* data, uint64_t bytes) {
    return static_cast<bool>(
        in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes)));
  };

  uint64_t header[4] = {};
  if (file_bytes < sizeof(header) || !read(header, sizeof(header))) {
    return fail("truncated header");
  }
  const auto [version, edge_data_size, num_nodes, num_edges] = header;
  if (version != 1) return fail("unsupported version " + std::to_string(version));
  if (edge_data_size != 0 && edge_data_size != sizeof(Weight)) {
    return fail("unsupported edge data size " + std::to_string(edge_data_size));
  }
  // The header must account for the file byte for byte before any vector
  // is sized from it: a truncated or corrupt file must not ask for a
  // header-sized allocation. Bounding each count by the body first keeps
  // the size arithmetic below from overflowing.
  const uint64_t body = file_bytes - sizeof(header);
  if (num_nodes > body / 8 || num_edges > body / 4 ||
      num_nodes >= std::numeric_limits<VertexId>::max() ||
      num_edges > std::numeric_limits<EdgeId>::max()) {
    return fail("header counts exceed the file size");
  }
  const uint64_t target_bytes = num_edges * sizeof(VertexId) + (num_edges % 2) * 4;
  const uint64_t weight_bytes = edge_data_size != 0 ? num_edges * sizeof(Weight) : 0;
  const uint64_t expected = sizeof(header) + num_nodes * 8 + target_bytes + weight_bytes;
  if (expected != file_bytes) {
    return fail("file is " + std::to_string(file_bytes) + " bytes, header implies " +
                std::to_string(expected));
  }

  // Galois stores *end* offsets (row_offsets[1..n]) as 64-bit values.
  std::vector<uint64_t> ends(num_nodes);
  if (!read(ends.data(), num_nodes * 8)) return fail("short read of row offsets");
  std::vector<EdgeId> offsets(num_nodes + 1, 0);
  for (uint64_t v = 0; v < num_nodes; ++v) {
    if (ends[v] < offsets[v] || ends[v] > num_edges) return fail("row offsets out of order");
    offsets[v + 1] = static_cast<EdgeId>(ends[v]);
  }
  if (offsets.back() != num_edges) return fail("row offsets do not end at the edge count");
  std::vector<VertexId> targets(num_edges);
  if (!read(targets.data(), target_bytes - (num_edges % 2) * 4)) {
    return fail("short read of edge targets");
  }
  if (num_edges % 2 == 1) {
    // Destination array is padded to an 8-byte boundary.
    uint32_t pad = 0;
    if (!read(&pad, 4)) return fail("short read of padding");
  }
  for (VertexId t : targets) {
    if (t >= num_nodes) return fail("edge target out of range");
  }
  Csr csr(std::move(offsets), std::move(targets));
  if (edge_data_size != 0) {
    std::vector<Weight> weights(num_edges);
    if (!read(weights.data(), weight_bytes)) return fail("short read of edge data");
    csr.SetWeights(std::move(weights));
  }
  return csr;
}

Csr ReadGaloisGr(const std::string& path) {
  std::string error;
  std::optional<Csr> csr = TryReadGaloisGr(path, &error);
  if (!csr.has_value()) {
    std::fprintf(stderr, "ReadGaloisGr: %s: %s\n", path.c_str(), error.c_str());
    std::abort();
  }
  return std::move(*csr);
}

void WriteEdgeListText(const Csr& csr, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  ETA_CHECK(out.is_open());
  out << "# directed edge list: " << csr.NumVertices() << " vertices, "
      << csr.NumEdges() << " edges\n";
  for (VertexId v = 0; v < csr.NumVertices(); ++v) {
    auto neighbors = csr.Neighbors(v);
    auto weights = csr.Weights();
    for (size_t i = 0; i < neighbors.size(); ++i) {
      out << v << ' ' << neighbors[i];
      if (csr.HasWeights()) out << ' ' << weights[csr.RowStart(v) + i];
      out << '\n';
    }
  }
  ETA_CHECK(out.good());
}

Csr ReadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  ETA_CHECK(in.is_open());
  std::vector<Edge> edges;
  std::vector<Weight> weights;
  std::string line;
  bool any_weight = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t u = 0, v = 0, w = 0;
    ETA_CHECK(static_cast<bool>(ls >> u >> v));
    edges.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v)});
    if (ls >> w) {
      any_weight = true;
      weights.push_back(static_cast<Weight>(w));
    } else {
      weights.push_back(0);
    }
    ETA_CHECK(!any_weight || weights.back() != 0 || w != 0);
  }
  if (!any_weight) {
    return BuildCsr(std::move(edges),
                    {.remove_self_loops = false, .remove_duplicates = false});
  }
  // Weighted path: keep weights attached through the (stable) rebuild.
  ETA_CHECK(weights.size() == edges.size());
  // Build CSR without dedup so the parallel weight array stays aligned.
  VertexId n = 0;
  for (const Edge& e : edges) n = std::max({n, e.src + 1, e.dst + 1});
  std::vector<EdgeId> offsets(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : edges) ++offsets[e.src + 1];
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> targets(edges.size());
  std::vector<Weight> out_weights(edges.size());
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t i = 0; i < edges.size(); ++i) {
    EdgeId slot = cursor[edges[i].src]++;
    targets[slot] = edges[i].dst;
    out_weights[slot] = weights[i];
  }
  Csr csr(std::move(offsets), std::move(targets));
  csr.SetWeights(std::move(out_weights));
  return csr;
}

}  // namespace eta::graph
