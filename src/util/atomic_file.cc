#include "util/atomic_file.h"

#include <cstdio>
#include <fstream>

#include "util/file_lock.h"
#include "util/text_file.h"

namespace blowfish {

Status AtomicUpdateFile(
    const std::string& path,
    const std::function<Status(const std::string* existing,
                               std::ostream& out)>& writer) {
  BLOWFISH_ASSIGN_OR_RETURN(FileLock lock, FileLock::Acquire(path));
  StatusOr<std::string> existing = ReadTextFile(path);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::trunc);
    if (!file) {
      return Status::NotFound("cannot open '" + tmp + "' to write");
    }
    Status written = writer(existing.ok() ? &*existing : nullptr, file);
    file.flush();
    if (written.ok() && !file) {
      written = Status::Internal("write to '" + tmp + "' failed");
    }
    if (!written.ok()) {
      file.close();
      std::remove(tmp.c_str());
      return written;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename '" + tmp + "' to '" + path +
                            "'");
  }
  return Status::OK();
}

}  // namespace blowfish
