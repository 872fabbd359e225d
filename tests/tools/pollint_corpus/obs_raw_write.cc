// Corpus: an exporter in the observability layer writing its own file
// (tmp + rename, no fsync) beside the durable writer. Linted by
// pollint_test under src/obs/: obs only renders, so its raw writes are
// banned-call findings like any other src/ layer's.
#include <cstdio>
#include <fstream>
#include <string>

bool ExportText(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    file << text;
    if (!file) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}
