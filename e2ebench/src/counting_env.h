// A storage::Env that forwards every call to Env::Default() — real writes,
// real fsync — and counts what passes through it. Handed to the engine in
// OpenOptions::env, it gives the storage layer's work per commit without
// touching src/storage.

#ifndef E2EBENCH_COUNTING_ENV_H_
#define E2EBENCH_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/env.h"

namespace e2e {

/// Plain-value copy of the counters, for before/after deltas.
struct IoCounts {
  uint64_t bytes_appended = 0;  ///< all files, including the WAL
  uint64_t bytes_read = 0;
  uint64_t syncs = 0;           ///< file Sync() plus SyncDir()
  double sync_us = 0;
  uint64_t wal_appends = 0;     ///< WAL records, one per commit
  double wal_append_us = 0;     ///< WAL Append() + Flush()
  uint64_t files_created = 0;
  uint64_t renames = 0;

  IoCounts Minus(const IoCounts& base) const;
};

class CountingEnv : public sciql::storage::Env {
 public:
  CountingEnv() = default;
  CountingEnv(const CountingEnv&) = delete;
  CountingEnv& operator=(const CountingEnv&) = delete;

  IoCounts Snapshot() const;

  sciql::Result<std::string> ReadFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  sciql::Result<std::vector<std::string>> ListDir(
      const std::string& path) override;
  sciql::Result<std::unique_ptr<sciql::storage::WritableFile>> NewWritableFile(
      const std::string& path, WriteMode mode) override;
  sciql::Status Rename(const std::string& from, const std::string& to) override;
  sciql::Status Truncate(const std::string& path, uint64_t size) override;
  sciql::Status RemoveFile(const std::string& path) override;
  sciql::Status CreateDirs(const std::string& path) override;
  sciql::Status SyncDir(const std::string& path) override;

  // Counters, bumped by this env and by the files it hands out. Times are
  // kept in nanoseconds so they can be atomic integers.
  std::atomic<uint64_t> bytes_appended{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> sync_ns{0};
  std::atomic<uint64_t> wal_appends{0};
  std::atomic<uint64_t> wal_append_ns{0};
  std::atomic<uint64_t> files_created{0};
  std::atomic<uint64_t> renames{0};

 private:
  sciql::storage::Env* base_ = sciql::storage::Env::Default();
};

}  // namespace e2e

#endif  // E2EBENCH_COUNTING_ENV_H_
