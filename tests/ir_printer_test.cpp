#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/face_detection.hpp"
#include "hls/transforms.hpp"
#include "ir/builder.hpp"
#include "ir/printer.hpp"

namespace hcp::ir {
namespace {

Function makeFn() {
  Function fn("demo");
  Builder b(fn);
  const auto in = b.inPort("x", 16);
  const auto out = b.outPort("y", 16);
  const auto arr = b.array("buf", 8, 16);
  b.atLine(5);
  const OpId x = b.readPort(in);
  b.beginLoop("L", 4);
  const OpId idx = b.constant(2, 4);
  b.store(arr, idx, x);
  const OpId v = b.load(arr, idx);
  b.endLoop();
  b.writePort(out, v);
  b.ret();
  return fn;
}

/// Prints `fn` as the only function of a module.
std::string printFn(const Function& fn, const PrintOptions& options = {}) {
  Module mod("m");
  mod.addFunction(std::make_unique<Function>(fn));
  return print(mod, options);
}

TEST(Printer, ContainsStructure) {
  const std::string text = printFn(makeFn());
  EXPECT_NE(text.find("func demo {"), std::string::npos);
  EXPECT_NE(text.find("port in x :16"), std::string::npos);
  EXPECT_NE(text.find("port out y :16"), std::string::npos);
  EXPECT_NE(text.find("array buf[8] :16 banks=1"), std::string::npos);
  EXPECT_NE(text.find("loop 1 \"L\" parent=0 trip=4"), std::string::npos);
  EXPECT_NE(text.find("= readport x"), std::string::npos);
  EXPECT_NE(text.find("= store buf"), std::string::npos);
}

TEST(Printer, ShowsLoopAndLineAnnotations) {
  const std::string text = printFn(makeFn());
  EXPECT_NE(text.find("loop=1"), std::string::npos);
  EXPECT_NE(text.find("line=5"), std::string::npos);
}

TEST(Printer, OptionsSuppressAnnotations) {
  PrintOptions options;
  options.sourceLines = false;
  options.loopBodies = false;
  const std::string text = printFn(makeFn(), options);
  EXPECT_EQ(text.find("line="), std::string::npos);
  EXPECT_EQ(text.find("loop="), std::string::npos);
}

TEST(Printer, PartialBitUseMarked) {
  Function fn("f");
  Builder b(fn);
  const auto in = b.inPort("x", 32);
  const OpId x = b.readPort(in);
  b.trunc(x, 8);
  b.ret();
  const std::string text = printFn(fn);
  EXPECT_NE(text.find("[8b]"), std::string::npos);
}

TEST(Printer, UnrollOriginsOptIn) {
  auto fn = makeFn();
  hls::unrollLoop(fn, 1, 2);
  PrintOptions options;
  options.unrollOrigins = true;
  const std::string text = printFn(fn, options);
  EXPECT_NE(text.find("origin=%"), std::string::npos);
  EXPECT_NE(text.find("replica="), std::string::npos);
}

TEST(Printer, ModulePrintsAllFunctions) {
  auto app = apps::faceDetection({.stages = 2});
  const std::string text = print(*app.module);
  EXPECT_NE(text.find("module face_detection top=face_detect"),
            std::string::npos);
  EXPECT_NE(text.find("func stage_0"), std::string::npos);
  EXPECT_NE(text.find("func face_detect"), std::string::npos);
  EXPECT_NE(text.find("call @cascade_classifier"), std::string::npos);
}

TEST(Printer, StableAcrossCalls) {
  const auto fn = makeFn();
  EXPECT_EQ(printFn(fn), printFn(fn));
}

}  // namespace
}  // namespace hcp::ir
