// Bench-owned storage instrument: an Env wrapper that times and counts
// every call into the storage layer, split by the kind of file it touches,
// and records a trace span per call when tracing is on.
//
// Its read/write totals must equal the wrapped Env's own IoStats at the end
// of every run (MatchesIoStats) — the instrument and the program count the
// same traffic, or the run fails.

#ifndef PERFBENCH_INSTRUMENTED_ENV_H_
#define PERFBENCH_INSTRUMENTED_ENV_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "server/json.h"
#include "storage/env.h"

namespace perfbench {

/// What a storage call touched, from its file name.
enum class FileKind {
  kTensor,     // <tensor prefix>/block_*: a tensor block
  kUFactor,    // U_*: a Phase-1 block factor
  kASubFactor, // A_*: a Phase-2 sub-factor
  kManifest,   // */MANIFEST
  kOther,
};
constexpr int kNumFileKinds = 5;
const char* FileKindName(FileKind kind);
FileKind ClassifyFile(const std::string& name);

enum class OpKind { kRead, kWrite, kMeta };
constexpr int kNumOpKinds = 3;

/// Point-in-time copy of the instrument's counters.
struct StorageCounts {
  struct Cell {
    uint64_t ops = 0;
    uint64_t bytes = 0;
    uint64_t nanos = 0;
  };
  std::array<std::array<Cell, kNumOpKinds>, kNumFileKinds> cells{};

  const Cell& at(FileKind file, OpKind op) const {
    return cells[static_cast<int>(file)][static_cast<int>(op)];
  }
  Cell Total(OpKind op) const;
  /// Factor files (U_ and A_) together.
  Cell Factor(OpKind op) const;
  StorageCounts& operator+=(const StorageCounts& other);
  StorageCounts operator-(const StorageCounts& other) const;

  tpcp::JsonValue ToJson() const;
  static StorageCounts FromJson(const tpcp::JsonValue& json);
};

class InstrumentedEnv : public tpcp::Env {
 public:
  /// Wraps `base` (not owned; must outlive this).
  explicit InstrumentedEnv(tpcp::Env* base) : base_(base) {}

  tpcp::Status WriteFile(const std::string& name,
                         const std::string& data) override;
  tpcp::Status ReadFile(const std::string& name, std::string* out) override;
  bool FileExists(const std::string& name) override;
  tpcp::Status DeleteFile(const std::string& name) override;
  tpcp::Result<uint64_t> FileSize(const std::string& name) override;
  std::vector<std::string> ListFiles(const std::string& prefix) override;

  StorageCounts Counts() const;

  /// True when the instrument's read/write op and byte totals equal the
  /// wrapped Env's IoStats; otherwise fills *why.
  bool MatchesIoStats(std::string* why) const;

 private:
  struct AtomicCell {
    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> nanos{0};
  };
  void Record(FileKind file, OpKind op, uint64_t bytes, int64_t start_ns);

  tpcp::Env* base_;
  std::array<std::array<AtomicCell, kNumOpKinds>, kNumFileKinds> cells_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INSTRUMENTED_ENV_H_
