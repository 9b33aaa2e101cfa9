// Registry contract: versions only grow, loads reproduce saves bit for bit,
// names cannot escape the root, and every way the disk can lie — torn
// write, truncation, bit rot, wrong generation — surfaces as a structured
// error instead of a wrong model.
#include "serve/registry.hpp"

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/model_codec.hpp"
#include "stats/lhs.hpp"
#include "stats/rng.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/thread_pool.hpp"

namespace rsm::serve {
namespace {

bool same_bits(Real a, Real b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string fresh_root(const std::string& name) {
  const std::string root = ::testing::TempDir() + "rsm_registry_" + name;
  std::filesystem::remove_all(root);
  return root;
}

SparseModel make_model(Index n, std::uint64_t seed) {
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::quadratic(n));
  Rng rng(seed);
  std::vector<ModelTerm> terms;
  for (Index m = 0; m < dict->size(); m += 2)
    terms.push_back({m, rng.normal()});
  return SparseModel(dict, std::move(terms));
}

TEST(ModelRegistry, SaveAssignsIncreasingVersionsAndLoadsLatest) {
  ModelRegistry registry(fresh_root("versions"));
  const SparseModel v1 = make_model(3, 1);
  const SparseModel v2 = make_model(3, 2);
  EXPECT_EQ(registry.latest_version("m"), 0u);
  EXPECT_EQ(registry.save("m", v1), 1u);
  EXPECT_EQ(registry.save("m", v2), 2u);
  EXPECT_EQ(registry.latest_version("m"), 2u);

  // Version 0 = latest; explicit versions stay addressable forever.
  EXPECT_EQ(registry.load("m").num_terms(), v2.num_terms());
  EXPECT_TRUE(same_bits(registry.load("m", 1).terms()[0].coefficient,
                        v1.terms()[0].coefficient));
  EXPECT_TRUE(same_bits(registry.load("m", 2).terms()[0].coefficient,
                        v2.terms()[0].coefficient));
}

TEST(ModelRegistry, RoundTripBitIdenticalOverThousandProbes) {
  ModelRegistry registry(fresh_root("roundtrip"));
  const Index n = 6;
  const SparseModel model = make_model(n, 44);
  registry.save("sram_delay", model);
  const SparseModel loaded = registry.load("sram_delay");

  Rng rng(7);
  const Matrix probes = monte_carlo_normal(1000, n, rng);
  for (Index r = 0; r < probes.rows(); ++r) {
    ASSERT_TRUE(same_bits(loaded.predict(probes.row(r)),
                          model.predict(probes.row(r))))
        << "predict diverged at probe " << r;
    const std::vector<Real> ga = model.gradient(probes.row(r));
    const std::vector<Real> gb = loaded.gradient(probes.row(r));
    for (std::size_t j = 0; j < ga.size(); ++j)
      ASSERT_TRUE(same_bits(ga[j], gb[j]))
          << "gradient diverged at probe " << r << " var " << j;
  }
}

TEST(ModelRegistry, ListReportsEveryVersionSorted) {
  ModelRegistry registry(fresh_root("list"));
  registry.save("beta", make_model(2, 1));
  registry.save("alpha", make_model(3, 2));
  registry.save("alpha", make_model(3, 3));

  const std::vector<ModelRecord> records = registry.list();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "alpha");
  EXPECT_EQ(records[0].version, 1u);
  EXPECT_EQ(records[1].name, "alpha");
  EXPECT_EQ(records[1].version, 2u);
  EXPECT_EQ(records[2].name, "beta");
  EXPECT_EQ(records[2].version, 1u);
  EXPECT_EQ(records[0].num_variables, 3);
  EXPECT_GT(records[0].num_terms, 0);
  EXPECT_GT(records[0].size_bytes, 0u);
}

TEST(ModelRegistry, ForeignFilesInRootAreIgnored) {
  const std::string root = fresh_root("foreign");
  ModelRegistry registry(root);
  registry.save("m", make_model(2, 1));
  std::ofstream(root + "/README.txt") << "not a model";
  std::ofstream(root + "/m.vNaN.model") << "not a model either";
  EXPECT_EQ(registry.list().size(), 1u);
  EXPECT_EQ(registry.latest_version("m"), 1u);
}

TEST(ModelRegistry, NamesCannotEscapeTheRoot) {
  ModelRegistry registry(fresh_root("names"));
  const SparseModel model = make_model(2, 1);
  EXPECT_THROW(registry.save("", model), IoError);
  EXPECT_THROW(registry.save("a/b", model), IoError);
  EXPECT_THROW(registry.save("../escape", model), IoError);
  EXPECT_THROW(registry.save(".hidden", model), IoError);
  EXPECT_THROW(registry.save("sp ace", model), IoError);
  EXPECT_EQ(registry.save("ok-name_1.2", model), 1u);
}

TEST(ModelRegistry, MissingNameOrVersionIsIoError) {
  ModelRegistry registry(fresh_root("missing"));
  EXPECT_THROW((void)registry.load("absent"), IoError);
  registry.save("m", make_model(2, 1));
  EXPECT_THROW((void)registry.load("m", 9), IoError);
}

TEST(ModelRegistry, FingerprintPinRejectsWrongGeneration) {
  ModelRegistry registry(fresh_root("pin"));
  const SparseModel model = make_model(3, 1);
  registry.save("m", model);
  const std::uint64_t fp = dictionary_fingerprint(model.dictionary());
  EXPECT_EQ(registry.load("m", 0, fp).num_terms(), model.num_terms());
  EXPECT_THROW((void)registry.load("m", 0, fp ^ 1u), VersionMismatchError);
}

TEST(ModelRegistry, TruncatedArtifactFailsClosed) {
  ModelRegistry registry(fresh_root("truncate"));
  registry.save("m", make_model(3, 1));
  const std::string path = registry.path_for("m", 1);
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full / 2);
  EXPECT_THROW((void)registry.load("m"), IoError);
  EXPECT_THROW((void)registry.list(), IoError);
}

TEST(ModelRegistry, BitRotFailsClosed) {
  ModelRegistry registry(fresh_root("bitrot"));
  registry.save("m", make_model(3, 1));
  const std::string path = registry.path_for("m", 1);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  file.seekp(size / 2);
  char byte = 0;
  file.seekg(size / 2);
  file.read(&byte, 1);
  file.seekp(size / 2);
  byte = static_cast<char>(static_cast<unsigned char>(byte) ^ 0x10);
  file.write(&byte, 1);
  file.close();
  EXPECT_THROW((void)registry.load("m"), IoError);
}

TEST(ModelRegistry, InjectedWriteFaultsFailClosedAndLeaveNoPartial) {
  const std::string root = fresh_root("faults");
  const FsFaultInjector faults({.fault_rate = 1.0, .seed = 99});
  ModelRegistry registry(root, &faults);
  EXPECT_THROW(registry.save("m", make_model(3, 1)), IoError);
  // atomic_write_file's rename never happened: no artifact, no version.
  EXPECT_EQ(registry.latest_version("m"), 0u);
  EXPECT_TRUE(registry.list().empty());

  // The same root recovers once the storage heals.
  ModelRegistry recovered(root);
  EXPECT_EQ(recovered.save("m", make_model(3, 1)), 1u);
  EXPECT_EQ(recovered.load("m").dictionary().num_variables(), 3);
}

TEST(ModelRegistry, NonFiniteCoefficientNeverPublishes) {
  const std::string root = fresh_root("non_finite");
  ModelRegistry registry(root);
  ASSERT_EQ(registry.save("m", make_model(3, 1)), 1u);
  const std::uint64_t before = registry.state_fingerprint();

  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(3));
  const SparseModel poisoned(
      dict, {{0, 1.0}, {2, std::numeric_limits<Real>::quiet_NaN()}});
  EXPECT_THROW(registry.save("m", poisoned), NumericalDomainError);
  // Nothing was written: the latest version and the listing are unchanged.
  EXPECT_EQ(registry.latest_version("m"), 1u);
  EXPECT_EQ(registry.list().size(), 1u);
  EXPECT_EQ(registry.state_fingerprint(), before);
  EXPECT_EQ(registry.load("m").num_terms(), make_model(3, 1).num_terms());
}

TEST(ModelRegistry, StateFingerprintTracksPublishesOnly) {
  const std::string root = fresh_root("fingerprint");
  ModelRegistry registry(root);
  const std::uint64_t empty = registry.state_fingerprint();
  registry.save("m", make_model(3, 1));
  const std::uint64_t one = registry.state_fingerprint();
  EXPECT_NE(one, empty);

  // Reads do not move it; a second handle over the same root agrees — the
  // probe a server runs sees exactly what another process published.
  (void)registry.load("m");
  EXPECT_EQ(registry.state_fingerprint(), one);
  EXPECT_EQ(ModelRegistry(root).state_fingerprint(), one);

  registry.save("m", make_model(3, 2));
  const std::uint64_t two = registry.state_fingerprint();
  EXPECT_NE(two, one);
  std::filesystem::remove(registry.path_for("m", 2));
  EXPECT_EQ(registry.state_fingerprint(), one);
}

TEST(ModelRegistry, FailedSaveMovesNeitherStateNorFingerprint) {
  const std::string root = fresh_root("failedsave");
  ModelRegistry healthy(root);
  healthy.save("m", make_model(3, 1));
  const std::uint64_t before = healthy.state_fingerprint();

  // Disk full mid-publish: the save throws, but the registry still holds
  // exactly v1 and the fingerprint is unchanged — a server probing it has
  // nothing to reload, so it keeps serving the last-good version.
  const FsFaultInjector faults({.fault_rate = 1.0, .seed = 7});
  ModelRegistry flaky(root, &faults);
  EXPECT_THROW(flaky.save("m", make_model(3, 2)), IoError);
  EXPECT_EQ(healthy.latest_version("m"), 1u);
  EXPECT_EQ(healthy.state_fingerprint(), before);
  EXPECT_EQ(healthy.load("m").dictionary().num_variables(), 3);
}

TEST(ModelRegistry, ConcurrentSavesNeverLeakThroughAFingerprintPin) {
  const std::string root = fresh_root("race");
  ModelRegistry registry(root);
  const SparseModel generation_a = make_model(3, 1);
  const SparseModel generation_b = make_model(4, 2);  // different dictionary
  const std::uint64_t pin = dictionary_fingerprint(generation_a.dictionary());
  ASSERT_NE(pin, dictionary_fingerprint(generation_b.dictionary()));
  registry.save("m", generation_a);

  // One thread publishes generation-B versions while another hammers
  // pinned loads of latest: every load must either return generation A or
  // fail as VersionMismatchError — never silently hand back a B model.
  // (atomic_write_file makes each version's rename the commit point, so a
  // loader can also never see a half-written artifact as IoError here.)
  ThreadPool pool(ThreadPool::Options{.num_threads = 2});
  std::atomic<int> matched{0};
  std::atomic<int> rejected{0};
  pool.submit([&] {
    for (int i = 0; i < 20; ++i) registry.save("m", generation_b);
  });
  pool.submit([&] {
    for (int i = 0; i < 200; ++i) {
      try {
        const SparseModel loaded = registry.load("m", 0, pin);
        EXPECT_EQ(dictionary_fingerprint(loaded.dictionary()), pin);
        matched.fetch_add(1);
      } catch (const VersionMismatchError&) {
        rejected.fetch_add(1);
      }
    }
  });
  pool.wait_idle();
  EXPECT_EQ(matched.load() + rejected.load(), 200);
  // The publisher finished, so by the end the pin must be rejecting.
  EXPECT_THROW((void)registry.load("m", 0, pin), VersionMismatchError);
  EXPECT_EQ(registry.latest_version("m"), 21u);
}

}  // namespace
}  // namespace rsm::serve
