// Corpus: raw buffered file output in the persistence layer. Linted
// three times by pollint_test: under a src/store/ or src/core/ virtual
// path every raw write below is a banned-call finding; under tools/
// the rule stays silent (outside src/, tools may buffer freely).
#include <cstdio>
#include <fstream>

void Bad(const char* path) {
  std::ofstream out(path);
  std::fstream both(path);
  FILE* f = fopen(path, "wb");
  if (f != nullptr) (void)fclose(f);
  (void)out;
  (void)both;
}

void Fine() {
  // ofstream in a comment is fine, as is "fopen(" in a string:
  const char* s = "fopen(x)";
  (void)s;
  std::ofstream log("x");  // NOLINT(pollint:banned-call)
  (void)log;
}
