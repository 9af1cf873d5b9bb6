// Graph file I/O.
//
// The paper stores graphs on disk in the Galois CSR binary format
// (".gr", version 1) and loads them from there; this module implements that
// format faithfully (64-bit header, end-offset index array, 32-bit
// destination array, optional 32-bit edge data) plus a plain-text edge-list
// reader/writer for interoperability with SNAP-style downloads.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace eta::graph {

/// Writes `csr` (and its weights, if any) as a Galois version-1 .gr file.
/// Aborts on I/O failure.
void WriteGaloisGr(const Csr& csr, const std::string& path);

/// Reads a Galois version-1 .gr file, or returns nullopt with the reason in
/// `*error` when it is unreadable or malformed. The header is checked
/// against the file size before anything is sized from it, so a truncated
/// or corrupt file costs no header-sized allocation.
std::optional<Csr> TryReadGaloisGr(const std::string& path, std::string* error = nullptr);

/// Reads a Galois version-1 .gr file. Aborts with the reason on malformed
/// input.
Csr ReadGaloisGr(const std::string& path);

/// Writes "src dst [weight]" lines.
void WriteEdgeListText(const Csr& csr, const std::string& path);

/// Reads "src dst [weight]" lines; '#'- or '%'-prefixed lines are comments
/// (SNAP convention). If any line carries a third column, all must.
Csr ReadEdgeListText(const std::string& path);

}  // namespace eta::graph
