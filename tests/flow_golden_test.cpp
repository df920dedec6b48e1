// Golden FlowResult digests: the FNV-1a digest of writeFlowResult's bytes
// for the table-3 designs and for three fuzz designs, at the default
// FlowConfig (seed 42, the seed the table-3 bench implements them with),
// and for three registered designs at seeds where the router meets a
// rounding tie.
// Any change to what the C-to-FPGA flow computes (a different placement, a
// different route, a different back-trace) moves a digest, so a change that
// must not alter results checks itself here, and one that alters them on
// purpose updates the literals below in the same commit.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/digit_spam.hpp"
#include "apps/face_detection.hpp"
#include "apps/registry.hpp"
#include "apps/vision_suite.hpp"
#include "core/flow.hpp"
#include "core/flow_serialize.hpp"
#include "fpga/device.hpp"
#include "random_design.hpp"
#include "support/envelope.hpp"

namespace hcp::core {
namespace {

std::string flowDigest(apps::AppDesign&& app, std::uint64_t seed = 42) {
  FlowConfig config;
  config.seed = seed;
  const FlowResult flow =
      runFlow(std::move(app), fpga::Device::xc7z020like(), config);
  std::ostringstream os;
  writeFlowResult(os, flow);
  return support::Fnv1a().bytes(os.str()).hex();
}

TEST(GoldenFlow, FaceDetection) {
  EXPECT_EQ(flowDigest(apps::faceDetection()), "a6467045e9e11d65");
}

TEST(GoldenFlow, DigitSpam) {
  EXPECT_EQ(flowDigest(apps::digitSpamCombined()), "c836176497577025");
}

TEST(GoldenFlow, VisionCombined) {
  EXPECT_EQ(flowDigest(apps::visionCombined()), "a8c7ead216d6fbad");
}

// Flows in which some sink search meets two least-cost paths whose double
// sums differ only by rounding (DESIGN.md §15).
TEST(GoldenFlow, BnnSeed1) {
  EXPECT_EQ(flowDigest(apps::makeDesign("bnn"), 1), "353dd1ec42df7339");
}

TEST(GoldenFlow, DigitRecognitionSeed5) {
  EXPECT_EQ(flowDigest(apps::makeDesign("digit_recognition"), 5), "0a7df01e2a03de13");
}

TEST(GoldenFlow, DigitRecognitionSeed42) {
  EXPECT_EQ(flowDigest(apps::makeDesign("digit_recognition"), 42), "52833e26941d70ba");
}

TEST(GoldenFlow, FuzzSeed1) {
  EXPECT_EQ(flowDigest(test::randomDesign(1)), "9e886f91ce23cf1a");
}

TEST(GoldenFlow, FuzzSeed2) {
  EXPECT_EQ(flowDigest(test::randomDesign(2)), "d4756bf5e9c03b78");
}

TEST(GoldenFlow, FuzzSeed3) {
  EXPECT_EQ(flowDigest(test::randomDesign(3)), "c274c968a113162a");
}

}  // namespace
}  // namespace hcp::core
