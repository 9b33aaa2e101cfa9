#include "serve/registry.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>

#include "io/atomic_file.hpp"
#include "io/crc32.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/model_codec.hpp"
#include "util/errors.hpp"

namespace rsm::serve {
namespace {

namespace fs = std::filesystem;

bool valid_model_name(const std::string& name) {
  if (name.empty() || name.front() == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

void require_valid_name(const std::string& name) {
  if (!valid_model_name(name))
    throw IoError("registry: invalid model name '" + name +
                  "' (allowed: [A-Za-z0-9._-], no leading dot)");
}

/// Parses "<name>.v<version>.model" filenames; returns false for foreign
/// files (registries tolerate stray content rather than refusing to list).
bool parse_entry_filename(const std::string& filename, std::string& name,
                          std::uint32_t& version) {
  const std::string suffix = ".model";
  if (filename.size() <= suffix.size() ||
      filename.substr(filename.size() - suffix.size()) != suffix)
    return false;
  const std::string stem = filename.substr(0, filename.size() - suffix.size());
  const std::size_t dot_v = stem.rfind(".v");
  if (dot_v == std::string::npos || dot_v == 0 || dot_v + 2 >= stem.size())
    return false;
  const std::string version_digits = stem.substr(dot_v + 2);
  std::uint64_t parsed = 0;
  for (const char c : version_digits) {
    if (c < '0' || c > '9') return false;
    parsed = parsed * 10 + static_cast<std::uint64_t>(c - '0');
    if (parsed > 0xffffffffull) return false;
  }
  if (parsed == 0) return false;
  name = stem.substr(0, dot_v);
  version = static_cast<std::uint32_t>(parsed);
  return valid_model_name(name);
}

}  // namespace

ModelRegistry::ModelRegistry(std::string root,
                             const FaultSchedule<FsFaultKind>* faults)
    : root_(std::move(root)), faults_(faults) {
  RSM_CHECK_MSG(!root_.empty(), "registry root must be non-empty");
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec)
    throw IoError("registry: cannot create root '" + root_ +
                  "': " + ec.message());
}

std::string ModelRegistry::path_for(const std::string& name,
                                    std::uint32_t version) const {
  std::ostringstream os;
  os << root_ << '/' << name << ".v" << version << ".model";
  return os.str();
}

std::uint32_t ModelRegistry::latest_version(const std::string& name) const {
  require_valid_name(name);
  std::uint32_t latest = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    std::string entry_name;
    std::uint32_t entry_version = 0;
    if (parse_entry_filename(entry.path().filename().string(), entry_name,
                             entry_version) &&
        entry_name == name)
      latest = std::max(latest, entry_version);
  }
  if (ec)
    throw IoError("registry: cannot list '" + root_ + "': " + ec.message());
  return latest;
}

std::uint64_t ModelRegistry::state_fingerprint() const {
  std::uint64_t combined = io::kFnvOffsetBasis;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    std::string name;
    std::uint32_t version = 0;
    const std::string filename = entry.path().filename().string();
    if (!parse_entry_filename(filename, name, version)) continue;
    std::error_code size_ec;
    const auto size = fs::file_size(entry.path(), size_ec);
    const std::uint64_t bytes = size_ec ? 0 : static_cast<std::uint64_t>(size);
    // FNV-1a per entry over its name and size; XOR so that directory
    // iteration order does not matter.
    combined ^= io::fnv1a64(&bytes, sizeof(bytes),
                            io::fnv1a64(filename.data(), filename.size()));
  }
  if (ec)
    throw IoError("registry: cannot list '" + root_ + "': " + ec.message());
  return combined;
}

std::uint32_t ModelRegistry::save(const std::string& name,
                                  const SparseModel& model) {
  RSM_TRACE_SPAN("serve.registry.save");
  require_valid_name(name);
  const std::uint32_t version = latest_version(name) + 1;
  io::atomic_write_file(path_for(name, version), encode_model(model), faults_);
  obs::metrics().counter("serve.registry.saves").increment();
  return version;
}

SparseModel ModelRegistry::load(
    const std::string& name, std::uint32_t version,
    std::optional<std::uint64_t> expected_fingerprint) const {
  RSM_TRACE_SPAN("serve.registry.load");
  require_valid_name(name);
  std::uint32_t resolved = version;
  if (resolved == 0) {
    resolved = latest_version(name);
    if (resolved == 0)
      throw IoError("registry: no versions of model '" + name + "'");
  }
  const std::string path = path_for(name, resolved);
  if (!io::file_exists(path))
    throw IoError("registry: model '" + name + "' has no version " +
                  std::to_string(resolved));
  SparseModel model = decode_model(io::read_file_bytes(path));
  if (expected_fingerprint.has_value()) {
    const std::uint64_t actual = dictionary_fingerprint(model.dictionary());
    if (actual != *expected_fingerprint) {
      std::ostringstream os;
      os << "registry: model '" << name << "' v" << resolved
         << " dictionary fingerprint " << actual
         << " does not match expected " << *expected_fingerprint;
      throw VersionMismatchError(os.str());
    }
  }
  obs::metrics().counter("serve.registry.loads").increment();
  return model;
}

std::vector<ModelRecord> ModelRegistry::list() const {
  RSM_TRACE_SPAN("serve.registry.list");
  std::vector<std::pair<std::string, std::uint32_t>> entries;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root_, ec)) {
    std::string name;
    std::uint32_t version = 0;
    if (parse_entry_filename(entry.path().filename().string(), name, version))
      entries.emplace_back(std::move(name), version);
  }
  if (ec)
    throw IoError("registry: cannot list '" + root_ + "': " + ec.message());
  std::sort(entries.begin(), entries.end());

  std::vector<ModelRecord> records;
  records.reserve(entries.size());
  for (const auto& [name, version] : entries) {
    const std::string bytes = io::read_file_bytes(path_for(name, version));
    const SparseModel model = decode_model(bytes);
    ModelRecord record;
    record.name = name;
    record.version = version;
    record.fingerprint = dictionary_fingerprint(model.dictionary());
    record.num_variables = model.dictionary().num_variables();
    record.num_terms = model.num_terms();
    record.size_bytes = bytes.size();
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace rsm::serve
