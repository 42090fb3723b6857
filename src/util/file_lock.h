// Advisory cross-process lock files for shared persisted state.
//
// Concurrent serving hosts may share one budget-ledger file. The write
// path is write-tmp-then-rename, which is atomic for *readers*, but two
// writers racing on the same `<path>.tmp` can interleave their writes
// and rename a corrupted file into place. A FileLock serializes the
// writers.
//
// Exclusion is a kernel flock(2) on `<path>.lock` (created O_CREAT and
// never unlinked), with the owner's pid written into the file for
// diagnostics. flock rather than create-unlink pid files because the
// kernel releases the lock the instant the owner dies — stale locks
// from crashed processes recover themselves, with none of the races a
// manual "read pid, decide it is dead, unlink" protocol has (two
// waiters can both judge a lock stale and one ends up unlinking the
// other's freshly created lock, leaving two writers inside the
// critical section).
//
// Advisory only: a process that writes `path` without acquiring the lock
// is not stopped. All persistence paths in this codebase go through
// util/atomic_file.h, which takes the lock.

#ifndef BLOWFISH_UTIL_FILE_LOCK_H_
#define BLOWFISH_UTIL_FILE_LOCK_H_

#include <string>

#include "util/status.h"

namespace blowfish {

/// RAII advisory lock on `<path>.lock`. Move-only; releases on
/// destruction. The lock file itself is left in place (unlinking a
/// lock file is exactly the race flock avoids); it is a handful of
/// bytes next to the state file it guards.
class FileLock {
 public:
  /// Acquires the lock for `path`, polling every ~10ms for up to
  /// `timeout_ms`. A lock whose owner died is free immediately (the
  /// kernel released it). Fails with ResourceExhausted when a live
  /// owner holds the lock past the timeout.
  static StatusOr<FileLock> Acquire(const std::string& path,
                                    int timeout_ms = 5000);

  FileLock(FileLock&& other) noexcept;
  FileLock& operator=(FileLock&& other) noexcept;
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  ~FileLock();

  /// Releases early (idempotent).
  void Release();

  /// The lock file's own path (`<path>.lock`).
  const std::string& lock_path() const { return lock_path_; }

 private:
  FileLock(std::string lock_path, int fd)
      : lock_path_(std::move(lock_path)), fd_(fd) {}

  std::string lock_path_;
  int fd_ = -1;
};

}  // namespace blowfish

#endif  // BLOWFISH_UTIL_FILE_LOCK_H_
