#include "counting_env.h"

#include <chrono>
#include <utility>

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using sciql::Result;
using sciql::Status;
using sciql::storage::WritableFile;

uint64_t NsSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// The storage engine names its log files wal.<epoch>.log.
bool IsWalPath(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  return base.rfind("wal.", 0) == 0 && base.size() > 4 &&
         base.compare(base.size() - 4, 4, ".log") == 0;
}

class CountingFile : public WritableFile {
 public:
  CountingFile(std::unique_ptr<WritableFile> base, CountingEnv* env, bool wal)
      : base_(std::move(base)), env_(env), wal_(wal) {}

  Status Append(std::string_view data) override {
    Clock::time_point t0 = Clock::now();
    Status st = base_->Append(data);
    if (wal_) env_->wal_append_ns += NsSince(t0);
    if (st.ok()) {
      env_->bytes_appended += data.size();
      if (wal_) env_->wal_appends++;
    }
    return st;
  }

  Status Flush() override {
    Clock::time_point t0 = Clock::now();
    Status st = base_->Flush();
    if (wal_) env_->wal_append_ns += NsSince(t0);
    return st;
  }

  Status Sync() override {
    Clock::time_point t0 = Clock::now();
    Status st = base_->Sync();
    env_->sync_ns += NsSince(t0);
    if (st.ok()) env_->syncs++;
    return st;
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  CountingEnv* env_;
  bool wal_;
};

}  // namespace

IoCounts IoCounts::Minus(const IoCounts& b) const {
  IoCounts d;
  d.bytes_appended = bytes_appended - b.bytes_appended;
  d.bytes_read = bytes_read - b.bytes_read;
  d.syncs = syncs - b.syncs;
  d.sync_us = sync_us - b.sync_us;
  d.wal_appends = wal_appends - b.wal_appends;
  d.wal_append_us = wal_append_us - b.wal_append_us;
  d.files_created = files_created - b.files_created;
  d.renames = renames - b.renames;
  return d;
}

IoCounts CountingEnv::Snapshot() const {
  IoCounts c;
  c.bytes_appended = bytes_appended.load();
  c.bytes_read = bytes_read.load();
  c.syncs = syncs.load();
  c.sync_us = static_cast<double>(sync_ns.load()) / 1e3;
  c.wal_appends = wal_appends.load();
  c.wal_append_us = static_cast<double>(wal_append_ns.load()) / 1e3;
  c.files_created = files_created.load();
  c.renames = renames.load();
  return c;
}

Result<std::string> CountingEnv::ReadFile(const std::string& path) {
  Result<std::string> r = base_->ReadFile(path);
  if (r.ok()) bytes_read += r->size();
  return r;
}

bool CountingEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<std::vector<std::string>> CountingEnv::ListDir(const std::string& path) {
  return base_->ListDir(path);
}

Result<std::unique_ptr<WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path, WriteMode mode) {
  Result<std::unique_ptr<WritableFile>> f = base_->NewWritableFile(path, mode);
  if (!f.ok()) return f.status();
  files_created++;
  return std::unique_ptr<WritableFile>(
      new CountingFile(std::move(f).take(), this, IsWalPath(path)));
}

Status CountingEnv::Rename(const std::string& from, const std::string& to) {
  Status st = base_->Rename(from, to);
  if (st.ok()) renames++;
  return st;
}

Status CountingEnv::Truncate(const std::string& path, uint64_t size) {
  return base_->Truncate(path, size);
}

Status CountingEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

Status CountingEnv::CreateDirs(const std::string& path) {
  return base_->CreateDirs(path);
}

Status CountingEnv::SyncDir(const std::string& path) {
  Clock::time_point t0 = Clock::now();
  Status st = base_->SyncDir(path);
  sync_ns += NsSince(t0);
  if (st.ok()) syncs++;
  return st;
}

}  // namespace e2e
