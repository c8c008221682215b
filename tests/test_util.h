// Shared helpers for the test suite: scaled-down zoo models (fast to
// materialize), small hand-built graphs, and a simulator request observer.

#ifndef OPTIMUS_TESTS_TEST_UTIL_H_
#define OPTIMUS_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/zoo/bert.h"
#include "src/zoo/chain_builder.h"
#include "src/zoo/mobilenet.h"
#include "src/zoo/resnet.h"
#include "src/zoo/vgg.h"

namespace optimus {

// Quarter-width zoo models: same structure, ~1/16 the weights.
inline Model TinyVgg(int depth) {
  VggOptions options;
  options.width_multiplier = 0.25;
  Model model = BuildVgg(depth, options);
  model.set_name("tiny_" + model.name());
  return model;
}

inline Model TinyResNet(int depth) {
  ResNetOptions options;
  options.width_multiplier = 0.25;
  Model model = BuildResNet(depth, options);
  model.set_name("tiny_" + model.name());
  return model;
}

inline Model TinyMobileNet() {
  MobileNetOptions options;
  options.width_multiplier = 0.25;
  return BuildMobileNet(options);
}

inline Model TinyBert(int layers, int64_t hidden) {
  BertConfig config;
  config.name = "tiny_bert_l" + std::to_string(layers) + "_h" + std::to_string(hidden);
  config.num_layers = layers;
  config.hidden = hidden;
  config.heads = 2;
  config.intermediate = hidden * 4;
  config.vocab_size = 512;
  config.max_position = 64;
  return BuildBert(config);
}

// A 4-op linear chain: Input -> Conv(k, 3->c) -> Activation -> Output.
inline Model SmallChain(const std::string& name, int64_t kernel, int64_t channels) {
  Model model(name, "test");
  ChainBuilder chain(&model);
  chain.Append(OpKind::kInput);
  chain.Append(OpKind::kConv2D, ConvAttrs(kernel, 3, channels));
  chain.Append(OpKind::kActivation, ReluAttrs());
  chain.Append(OpKind::kOutput);
  return model;
}

// A simulator RequestObserver that files each served request's record at its
// arrival ordinal (the trace position under RunSimulation), growing `records`
// as needed. A slot whose request was never served keeps kInvalidFunction.
inline RequestObserver RecordByOrdinal(std::vector<RequestRecord>* records) {
  return [records](const RequestRecord& record) {
    if (record.ordinal >= records->size()) {
      records->resize(record.ordinal + 1);
    }
    (*records)[record.ordinal] = record;
  };
}

}  // namespace optimus

#endif  // OPTIMUS_TESTS_TEST_UTIL_H_
