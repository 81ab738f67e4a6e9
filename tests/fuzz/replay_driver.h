// Copyright (c) hdc authors. Apache-2.0 license.
//
// The standalone main() every fuzz harness shares when it is not built as a
// libFuzzer target (tests/fuzz/CMakeLists.txt):
//   <fuzzer> <corpus file or dir>...   replays each input through the
//                                      harness (the tier-1 `_replay` ctest);
//   <fuzzer> --generate DIR            rewrites the harness's seed corpus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

namespace hdc {
namespace fuzz {

using FuzzFn = void (*)(const uint8_t* data, size_t size);
using GenerateFn = int (*)(const std::string& dir);

inline bool ReplayFile(const std::filesystem::path& path, FuzzFn fuzz_one) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return false;
  }
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  fuzz_one(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  return true;
}

inline int ReplayMain(int argc, char** argv, const char* name,
                      FuzzFn fuzz_one, GenerateFn generate) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "--generate") return generate(args[1]);
  if (args.empty()) {
    std::cerr << "usage: " << argv[0]
              << " <corpus file or dir>... | --generate <dir>\n";
    return 2;
  }
  size_t replayed = 0;
  for (const std::string& arg : args) {
    const std::filesystem::path path(arg);
    if (std::filesystem::is_directory(path)) {
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (!entry.is_regular_file()) continue;
        if (!ReplayFile(entry.path(), fuzz_one)) return 1;
        ++replayed;
      }
    } else {
      if (!ReplayFile(path, fuzz_one)) return 1;
      ++replayed;
    }
  }
  std::cout << name << ": replayed " << replayed << " input(s), no crash\n";
  return 0;
}

}  // namespace fuzz
}  // namespace hdc
