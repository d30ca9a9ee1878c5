// Umbrella header for the factorization serving runtime.
//
// Typical use:
//
//   service::ModelRegistry registry;
//   auto model = registry.load_file("prod", "model.fhd");
//   service::FactorizationEngine engine(model, {.max_batch = 64});
//
//   auto fut = engine.submit(target, {.multi_object = true});
//   core::FactorizeResult result = fut.get();   // == direct factorize()
//
//   // Or without a waiting thread: the callback runs once per request.
//   engine.submit(target, {}, [](std::exception_ptr error,
//                                const core::FactorizeResult& r) { ... });
//
//   std::cout << engine.metrics().to_string() << "\n";
#pragma once

#include "service/engine.hpp"          // IWYU pragma: export
#include "service/metrics.hpp"         // IWYU pragma: export
#include "service/model_registry.hpp"  // IWYU pragma: export
#include "service/result_cache.hpp"    // IWYU pragma: export
#include "service/trace.hpp"           // IWYU pragma: export
