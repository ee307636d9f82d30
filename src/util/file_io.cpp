#include "util/file_io.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace helcfl::util {

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open '" + tmp + "' for writing");
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("failed to write '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("failed to rename '" + tmp + "' to '" + path + "'");
  }
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open '" + path + "' for reading");
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad()) {
    throw std::runtime_error("failed to read '" + path + "'");
  }
  return bytes;
}

std::string expand_path_token(std::string path, std::string_view token,
                              std::uint64_t value) {
  const std::string text = std::to_string(value);
  for (std::size_t at = path.find(token); at != std::string::npos;
       at = path.find(token, at + text.size())) {
    path.replace(at, token.size(), text);
  }
  return path;
}

}  // namespace helcfl::util
