(* Recorded outputs the oracles compare against. They depend on the
   code, never on the workload seed: a change that alters them changes
   what the reproduction computes, and the benchmark reports every
   affected operation as failed. *)

(* MD5 of each quick-sweep table as rendered, in canonical order. *)
let sweep_tables =
  [
    ("E1", "2275dbf3da39fd396563f4b90af6fb77");
    ("E2", "7c8d89c34b6b73a027c089553b0a3ddd");
    ("E3", "93709e1f410bb0eeba71daf2cfd3c30e");
    ("E4", "e55fa6ac73eda2796466de2932943dbb");
    ("E5", "dfdfaf477f6e7a6066b2f72334fb5d34");
    ("E6", "cfb70bc1e8bf547e94306feca131115f");
    ("E7", "e17b4acaa5521e8a022c61268bd3411d");
    ("E8", "c75d50589f05bd3a8895ce79db3e9c45");
    ("E9", "94b4f836841fba69252b15b9df3b6db3");
    ("E10", "54112313048e08f3b08ecfae954a06fe");
    ("E11", "731aa5c7ac9943e555aec6190f61e429");
    ("E12", "83e53d00aaf68c8902d20509f229fa6d");
    ("E13", "ebbdc8f1bad7ddb616fd1ade1058138e");
  ]

(* (rounds, msgs, bits) of an n=1000 unauthenticated wrapper instance
   with unanimous inputs, perfect advice, the first f processes faulty
   and silent, by f. *)
let scale_counts =
  [
    (0, (78, 29084886, 2158559280));
    (166, (78, 24271704, 1801524672));
    (333, (78, 19433547, 1442500056));
  ]
