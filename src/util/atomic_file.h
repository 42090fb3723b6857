// Locked, atomic text-file persistence.
//
// The budget ledgers, the one state a restarted host reloads, are
// written with this protocol:
//
//   1. take the advisory `<path>.lock` (util/file_lock.h), so concurrent
//      hosts sharing one file cannot interleave their writes;
//   2. read the current contents under that lock;
//   3. write the full new contents to `<path>.tmp`;
//   4. rename(2) the tmp over `path`.
//
// Readers never see a torn file (rename is atomic), a writer that fails
// midway leaves the previous good file untouched, and two writers cannot
// clobber each other's tmp.

#ifndef BLOWFISH_UTIL_ATOMIC_FILE_H_
#define BLOWFISH_UTIL_ATOMIC_FILE_H_

#include <functional>
#include <iosfwd>
#include <string>

#include "util/status.h"

namespace blowfish {

/// Read-modify-write under the advisory lock: `writer` receives the
/// file's current contents (nullptr when the file does not exist), read
/// under the same lock acquisition — so a writer that merges with the
/// on-disk state cannot lose a concurrent process's update between its
/// read and its rename — and a temp stream whose contents are then
/// atomically installed at `path`. If `writer` fails (or the stream
/// errors), the previous file is left untouched and the temp file is
/// removed.
Status AtomicUpdateFile(
    const std::string& path,
    const std::function<Status(const std::string* existing,
                               std::ostream& out)>& writer);

}  // namespace blowfish

#endif  // BLOWFISH_UTIL_ATOMIC_FILE_H_
