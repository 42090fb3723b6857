// Whole-file reads for the small text inputs every front end takes:
// policy specs, serve configs, request files and budget ledgers. CSV
// datasets are streamed instead (data/csv_loader.h LoadCsvFile).

#ifndef BLOWFISH_UTIL_TEXT_FILE_H_
#define BLOWFISH_UTIL_TEXT_FILE_H_

#include <string>

#include "util/status.h"

namespace blowfish {

/// Reads the whole file at `path` into one string, sized from the file
/// up front so the text is read once and never copied. A file whose size
/// is not known up front (a pipe) or that grows while read is read to its
/// end. NotFound when the file cannot be opened.
StatusOr<std::string> ReadTextFile(const std::string& path);

}  // namespace blowfish

#endif  // BLOWFISH_UTIL_TEXT_FILE_H_
