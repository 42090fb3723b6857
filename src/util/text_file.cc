#include "util/text_file.h"

#include <filesystem>
#include <fstream>

namespace blowfish {

StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open '" + path + "'");
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  std::string text(error ? 0 : static_cast<size_t>(size), '\0');
  file.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<size_t>(file.gcount()));
  char chunk[4096];
  while (file.read(chunk, sizeof chunk) || file.gcount() > 0) {
    text.append(chunk, static_cast<size_t>(file.gcount()));
  }
  return text;
}

}  // namespace blowfish
