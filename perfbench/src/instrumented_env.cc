#include "instrumented_env.h"

#include "trace.h"

namespace perfbench {

using tpcp::JsonValue;
using tpcp::Result;
using tpcp::Status;

const char* FileKindName(FileKind kind) {
  switch (kind) {
    case FileKind::kTensor:
      return "tensor";
    case FileKind::kUFactor:
      return "u_factor";
    case FileKind::kASubFactor:
      return "a_subfactor";
    case FileKind::kManifest:
      return "manifest";
    case FileKind::kOther:
      break;
  }
  return "other";
}

FileKind ClassifyFile(const std::string& name) {
  const size_t slash = name.rfind('/');
  const std::string base =
      slash == std::string::npos ? name : name.substr(slash + 1);
  if (base == "MANIFEST") return FileKind::kManifest;
  if (base.rfind("U_", 0) == 0) return FileKind::kUFactor;
  if (base.rfind("A_", 0) == 0) return FileKind::kASubFactor;
  if (base.rfind("block_", 0) == 0) return FileKind::kTensor;
  return FileKind::kOther;
}

namespace {

const char* SpanName(FileKind file, OpKind op) {
  static const char* const kNames[kNumFileKinds][kNumOpKinds] = {
      {"read tensor", "write tensor", "meta tensor"},
      {"read U", "write U", "meta U"},
      {"read A", "write A", "meta A"},
      {"read MANIFEST", "write MANIFEST", "meta MANIFEST"},
      {"read other", "write other", "meta other"},
  };
  return kNames[static_cast<int>(file)][static_cast<int>(op)];
}

}  // namespace

StorageCounts::Cell StorageCounts::Total(OpKind op) const {
  Cell total;
  for (int f = 0; f < kNumFileKinds; ++f) {
    const Cell& c = cells[f][static_cast<int>(op)];
    total.ops += c.ops;
    total.bytes += c.bytes;
    total.nanos += c.nanos;
  }
  return total;
}

StorageCounts::Cell StorageCounts::Factor(OpKind op) const {
  const Cell& u = at(FileKind::kUFactor, op);
  const Cell& a = at(FileKind::kASubFactor, op);
  return Cell{u.ops + a.ops, u.bytes + a.bytes, u.nanos + a.nanos};
}

StorageCounts& StorageCounts::operator+=(const StorageCounts& other) {
  for (int f = 0; f < kNumFileKinds; ++f) {
    for (int o = 0; o < kNumOpKinds; ++o) {
      cells[f][o].ops += other.cells[f][o].ops;
      cells[f][o].bytes += other.cells[f][o].bytes;
      cells[f][o].nanos += other.cells[f][o].nanos;
    }
  }
  return *this;
}

StorageCounts StorageCounts::operator-(const StorageCounts& other) const {
  StorageCounts out = *this;
  for (int f = 0; f < kNumFileKinds; ++f) {
    for (int o = 0; o < kNumOpKinds; ++o) {
      out.cells[f][o].ops -= other.cells[f][o].ops;
      out.cells[f][o].bytes -= other.cells[f][o].bytes;
      out.cells[f][o].nanos -= other.cells[f][o].nanos;
    }
  }
  return out;
}

JsonValue StorageCounts::ToJson() const {
  static const char* const kOps[kNumOpKinds] = {"read", "write", "meta"};
  JsonValue json = JsonValue::Object();
  for (int f = 0; f < kNumFileKinds; ++f) {
    JsonValue per_file = JsonValue::Object();
    for (int o = 0; o < kNumOpKinds; ++o) {
      JsonValue cell = JsonValue::Array();
      cell.Append(cells[f][o].ops);
      cell.Append(cells[f][o].bytes);
      cell.Append(cells[f][o].nanos);
      per_file.Set(kOps[o], std::move(cell));
    }
    json.Set(FileKindName(static_cast<FileKind>(f)), std::move(per_file));
  }
  return json;
}

StorageCounts StorageCounts::FromJson(const JsonValue& json) {
  static const char* const kOps[kNumOpKinds] = {"read", "write", "meta"};
  StorageCounts out;
  for (int f = 0; f < kNumFileKinds; ++f) {
    const JsonValue* per_file =
        json.Find(FileKindName(static_cast<FileKind>(f)));
    if (per_file == nullptr) continue;
    for (int o = 0; o < kNumOpKinds; ++o) {
      const JsonValue* cell = per_file->Find(kOps[o]);
      if (cell == nullptr || !cell->is_array() ||
          cell->array_items().size() != 3) {
        continue;
      }
      out.cells[f][o].ops =
          static_cast<uint64_t>(cell->array_items()[0].int_value());
      out.cells[f][o].bytes =
          static_cast<uint64_t>(cell->array_items()[1].int_value());
      out.cells[f][o].nanos =
          static_cast<uint64_t>(cell->array_items()[2].int_value());
    }
  }
  return out;
}

void InstrumentedEnv::Record(FileKind file, OpKind op, uint64_t bytes,
                             int64_t start_ns) {
  AtomicCell& cell = cells_[static_cast<int>(file)][static_cast<int>(op)];
  cell.ops.fetch_add(1, std::memory_order_relaxed);
  cell.bytes.fetch_add(bytes, std::memory_order_relaxed);
  cell.nanos.fetch_add(static_cast<uint64_t>(NowNs() - start_ns),
                       std::memory_order_relaxed);
}

// Reads and writes are counted only when they succeed — the rule every
// built-in Env applies to its IoStats — so the totals stay comparable.
Status InstrumentedEnv::WriteFile(const std::string& name,
                                  const std::string& data) {
  const FileKind file = ClassifyFile(name);
  ScopedSpan span(SpanName(file, OpKind::kWrite), "storage");
  const int64_t start = NowNs();
  Status s = base_->WriteFile(name, data);
  if (s.ok()) {
    Record(file, OpKind::kWrite, data.size(), start);
    stats_.RecordWrite(data.size());
  }
  return s;
}

Status InstrumentedEnv::ReadFile(const std::string& name, std::string* out) {
  const FileKind file = ClassifyFile(name);
  ScopedSpan span(SpanName(file, OpKind::kRead), "storage");
  const int64_t start = NowNs();
  Status s = base_->ReadFile(name, out);
  if (s.ok()) {
    Record(file, OpKind::kRead, out->size(), start);
    stats_.RecordRead(out->size());
  }
  return s;
}

bool InstrumentedEnv::FileExists(const std::string& name) {
  const FileKind file = ClassifyFile(name);
  ScopedSpan span(SpanName(file, OpKind::kMeta), "storage");
  const int64_t start = NowNs();
  const bool exists = base_->FileExists(name);
  Record(file, OpKind::kMeta, 0, start);
  return exists;
}

Status InstrumentedEnv::DeleteFile(const std::string& name) {
  const FileKind file = ClassifyFile(name);
  ScopedSpan span(SpanName(file, OpKind::kMeta), "storage");
  const int64_t start = NowNs();
  Status s = base_->DeleteFile(name);
  Record(file, OpKind::kMeta, 0, start);
  return s;
}

Result<uint64_t> InstrumentedEnv::FileSize(const std::string& name) {
  const FileKind file = ClassifyFile(name);
  ScopedSpan span(SpanName(file, OpKind::kMeta), "storage");
  const int64_t start = NowNs();
  Result<uint64_t> size = base_->FileSize(name);
  Record(file, OpKind::kMeta, 0, start);
  return size;
}

std::vector<std::string> InstrumentedEnv::ListFiles(
    const std::string& prefix) {
  ScopedSpan span(SpanName(FileKind::kOther, OpKind::kMeta), "storage");
  const int64_t start = NowNs();
  std::vector<std::string> files = base_->ListFiles(prefix);
  Record(FileKind::kOther, OpKind::kMeta, 0, start);
  return files;
}

StorageCounts InstrumentedEnv::Counts() const {
  StorageCounts out;
  for (int f = 0; f < kNumFileKinds; ++f) {
    for (int o = 0; o < kNumOpKinds; ++o) {
      out.cells[f][o].ops = cells_[f][o].ops.load();
      out.cells[f][o].bytes = cells_[f][o].bytes.load();
      out.cells[f][o].nanos = cells_[f][o].nanos.load();
    }
  }
  return out;
}

bool InstrumentedEnv::MatchesIoStats(std::string* why) const {
  const StorageCounts counts = Counts();
  const StorageCounts::Cell reads = counts.Total(OpKind::kRead);
  const StorageCounts::Cell writes = counts.Total(OpKind::kWrite);
  const tpcp::IoStats& io = base_->stats();
  if (reads.ops == io.reads() && reads.bytes == io.bytes_read() &&
      writes.ops == io.writes() && writes.bytes == io.bytes_written()) {
    return true;
  }
  *why = "instrument reads=" + std::to_string(reads.ops) + "/" +
         std::to_string(reads.bytes) + "B writes=" +
         std::to_string(writes.ops) + "/" + std::to_string(writes.bytes) +
         "B vs IoStats " + io.ToString();
  return false;
}

}  // namespace perfbench
