#include "util/cli.hpp"

#include <cstdlib>
#include <stdexcept>

namespace metaprep::util {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        named_.insert_or_assign(arg.substr(2), std::string(1, '1'));
      } else {
        named_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Args::has(const std::string& name) const { return named_.count(name) > 0; }

std::string Args::get(const std::string& name, const std::string& fallback) const {
  auto it = named_.find(name);
  return it == named_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  return std::stoll(it->second);
}

double Args::get_double(const std::string& name, double fallback) const {
  auto it = named_.find(name);
  if (it == named_.end()) return fallback;
  return std::stod(it->second);
}

}  // namespace metaprep::util
