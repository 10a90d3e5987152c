#include "cli/args.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/text_scan.hpp"

namespace epgs::cli {

const std::vector<std::string>& Args::default_flags() {
  static const std::vector<std::string> kFlags = {
      "validate", "weights", "no-symmetrize", "no-dedupe",
      "no-reconstruct", "isolate", "resume", "allow-dnf",
      "retry-all", "shrink", "force-violation", "help"};
  return kFlags;
}

Args Args::parse(const std::vector<std::string>& argv,
                 const std::vector<std::string>& flag_keys) {
  Args args;
  const auto is_flag = [&](const std::string& key) {
    return std::find(flag_keys.begin(), flag_keys.end(), key) !=
           flag_keys.end();
  };
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& tok = argv[i];
    if (tok.rfind("--", 0) == 0) {
      std::string key = tok.substr(2);
      if (key.empty()) throw EpgsError("bare '--' is not a valid option");
      const std::size_t eq = key.find('=');
      if (eq != std::string::npos) {
        args.options_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (is_flag(key)) {
        args.options_[key] = "";
      } else {
        if (i + 1 == argv.size()) {
          throw EpgsError("--" + key + " expects a value");
        }
        args.options_[key] = argv[++i];
      }
    } else {
      args.positional_.push_back(tok);
    }
  }
  return args;
}

bool Args::has(const std::string& key) const {
  return options_.contains(key);
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

template <class T>
T Args::get_number(const std::string& key, T fallback,
                   const char* expects) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  if (const std::optional<T> v = text::try_parse<T>(it->second)) return *v;
  throw ParseError("--" + key + " expects " + expects + ", got '" +
                   it->second + "'");
}

int Args::get_int(const std::string& key, int fallback) const {
  return get_number(key, fallback, "an integer");
}

double Args::get_double(const std::string& key, double fallback) const {
  return get_number(key, fallback, "a number");
}

std::uint64_t Args::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  return get_number(key, fallback, "an unsigned integer");
}

std::vector<std::string> Args::get_list(const std::string& key) const {
  std::vector<std::string> out;
  const std::string value = get(key);
  std::size_t pos = 0;
  while (pos <= value.size() && !value.empty()) {
    const std::size_t comma = value.find(',', pos);
    const std::string item =
        value.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

void Args::expect_known(const std::vector<std::string>& known) const {
  for (const auto& [key, value] : options_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw EpgsError("unknown option --" + key);
    }
  }
}

}  // namespace epgs::cli
