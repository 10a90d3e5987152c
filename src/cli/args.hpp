// Minimal command-line option parser for the epg tool.
//
// Grammar: epg <command> [--flag] [--key value]... [positional]...
// Unknown options are an error; every command documents its options in
// its usage() string.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace epgs::cli {

class Args {
 public:
  /// Parse argv past the command word. Options in `flag_keys` are bare
  /// booleans and never consume the following token; every other --key
  /// takes one value ("--key value" or "--key=value"). Throws EpgsError
  /// on malformed input.
  static Args parse(const std::vector<std::string>& argv,
                    const std::vector<std::string>& flag_keys =
                        default_flags());

  /// The boolean flags understood by the epg subcommands.
  static const std::vector<std::string>& default_flags();

  [[nodiscard]] bool has(const std::string& key) const;

  /// String option; returns fallback when absent.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const;

  /// Typed getters; throw ParseError (an EpgsError) on a value that is
  /// not wholly a number of the type (text::try_parse grammar).
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;

  /// Comma-separated list option.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& key) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Keys the caller never consumed — used to reject typos.
  void expect_known(const std::vector<std::string>& known) const;

 private:
  template <class T>
  [[nodiscard]] T get_number(const std::string& key, T fallback,
                             const char* expects) const;

  std::map<std::string, std::string> options_;  // "" for bare flags
  std::vector<std::string> positional_;
};

}  // namespace epgs::cli
