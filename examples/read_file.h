// Whole-file reading for the xic* binaries: one std::string sized from
// the file's length, so a document is held once while it is read.

#ifndef XIC_EXAMPLES_READ_FILE_H_
#define XIC_EXAMPLES_READ_FILE_H_

#include <sys/stat.h>

#include <cstdio>
#include <string>

namespace xic {

/// Replaces *out with the bytes of `path`. False when the file cannot be
/// opened or read.
inline bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  struct stat st;
  const bool sized = fstat(fileno(file), &st) == 0 && S_ISREG(st.st_mode);
  // One spare byte, so the read that finds end of file needs no growth;
  // a pipe's length is unknown, and the string doubles as it fills.
  out->resize((sized ? static_cast<size_t>(st.st_size) : 0) + 1);
  size_t length = 0;
  size_t n;
  do {
    if (length == out->size()) out->resize(2 * length);
    n = std::fread(out->data() + length, 1, out->size() - length, file);
    length += n;
  } while (n > 0);
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  out->resize(length);
  return ok;
}

}  // namespace xic

#endif  // XIC_EXAMPLES_READ_FILE_H_
