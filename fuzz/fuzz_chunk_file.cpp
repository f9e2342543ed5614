// Fuzz harness: the on-disk open paths — STGT traces, STGC chunk files
// (v2; the retired v1 magic must be rejected) and, through the same record
// validator, STGSPL spill records.
//
// Contract under test: opening ANY byte blob as a trace/chunk file either
// succeeds (and then every chunk streams cleanly — open validated it) or
// throws a stagg::Error naming the offending file offset.  Crashes,
// unbounded allocations from attacker-controlled counts, and accepted-but-
// corrupt stores are findings.
//
// The open APIs take paths, so each input round-trips through a scratch
// file (libFuzzer is single-process; the fixed per-PID name cannot race).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/error.hpp"
#include "trace/binary_io.hpp"
#include "trace/trace_store.hpp"

namespace {

const std::string& scratch_path() {
  static const std::string path = "/tmp/stagg_fuzz_chunk_" +
                                  std::to_string(::getpid()) + ".bin";
  return path;
}

void write_scratch(const std::uint8_t* data, std::size_t size) {
  std::FILE* f = std::fopen(scratch_path().c_str(), "wb");
  if (f == nullptr) __builtin_trap();
  if (size != 0 && std::fwrite(data, 1, size, f) != size) __builtin_trap();
  std::fclose(f);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  write_scratch(data, size);
  try {
    const auto store = stagg::read_binary_trace_store(scratch_path(), 256);
    // Open validated every record; streaming the chunks back (the exact
    // reader path sessions use) must therefore never throw.
    std::vector<stagg::StateInterval> row;
    for (std::size_t r = 0; r < store->resource_count(); ++r) {
      store->materialize(static_cast<stagg::ResourceId>(r), row);
    }
    store->audit();
  } catch (const stagg::Error&) {
    // Truncation/corruption rejected loudly — the documented contract.
  }
  return 0;
}
