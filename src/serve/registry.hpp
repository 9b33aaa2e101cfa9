// On-disk registry of named, versioned fitted models.
//
// Fit offline, serve online: a campaign saves its fitted SparseModel under a
// stable name ("sram_delay"), the serving layer loads it by (name, version)
// — version 0 meaning latest — and every byte that crosses the disk goes
// through the durable primitives in src/io (atomic_write_file: readers see
// the old artifact or the whole new one, never a prefix) and the CRC-guarded
// codec in serve/model_codec.hpp (corruption fails closed as IoError).
//
// Layout: one file per version, `<root>/<name>.v<version>.model`. Versions
// are assigned by save() as latest + 1, so concurrent histories never
// overwrite each other silently — the rename in atomic_write_file is the
// commit point. Loads can pin an expected dictionary fingerprint, turning
// "served the wrong model generation" from a silent wrong answer into a
// structured VersionMismatchError.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "util/fault_injection.hpp"

namespace rsm::serve {

/// One registry entry as reported by list().
struct ModelRecord {
  std::string name;
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;   // dictionary fingerprint
  Index num_variables = 0;
  Index num_terms = 0;
  std::uint64_t size_bytes = 0;
};

class ModelRegistry {
 public:
  /// Opens (creating if needed) the registry rooted at `root`. The fs fault
  /// schedule, when given, must outlive the registry; it reaches every
  /// physical write through atomic_write_file.
  explicit ModelRegistry(std::string root,
                         const FaultSchedule<FsFaultKind>* faults = nullptr);

  /// Serializes and durably stores `model` as the next version of `name`;
  /// returns the assigned version (1 for a new name). Model names are
  /// restricted to [A-Za-z0-9._-] minus leading dots, so a name can never
  /// escape the registry root. A NaN or Inf coefficient throws
  /// NumericalDomainError and writes nothing.
  std::uint32_t save(const std::string& name, const SparseModel& model);

  /// Loads (name, version); version 0 loads the latest. When
  /// `expected_fingerprint` is set, the loaded model's dictionary
  /// fingerprint must match or the load fails with VersionMismatchError.
  /// Missing name/version or any corruption raises IoError.
  [[nodiscard]] SparseModel load(
      const std::string& name, std::uint32_t version = 0,
      std::optional<std::uint64_t> expected_fingerprint = std::nullopt) const;

  /// Every (name, version) on disk, sorted by name then version. Each entry
  /// is fully decoded (registries hold few, small artifacts), so a corrupt
  /// file surfaces here as IoError rather than later at serving time.
  [[nodiscard]] std::vector<ModelRecord> list() const;

  /// Latest stored version of `name`; 0 when the name is absent.
  [[nodiscard]] std::uint32_t latest_version(const std::string& name) const;

  /// Order-independent hash of the registry's directory state (every entry
  /// filename + size). Cheap — no file is opened — so a server can probe it
  /// periodically and trigger a hot reload only when it changes. It answers
  /// "did the set of versions change", not "are the bytes intact": content
  /// integrity stays the codec's CRC's job at load time.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  [[nodiscard]] const std::string& root() const { return root_; }

  /// On-disk path of one version (exposed for corruption tests).
  [[nodiscard]] std::string path_for(const std::string& name,
                                     std::uint32_t version) const;

 private:
  std::string root_;
  const FaultSchedule<FsFaultKind>* faults_ = nullptr;
};

}  // namespace rsm::serve
