(* Output checks.  A workload's sim-visible outputs are compared with the
   values pinned in [Pins] (seeds 1 and 2, every size the benchmark
   runs), and every replay and consumer result with the invariants its
   layer guarantees.  The first mismatch aborts the run, naming it. *)

exception Mismatch of string

let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

(* Outputs as (field, rendered value): ints in decimal, sim times and
   rates to 0.01, so a pin reads the way a report prints it. *)
type outputs = (string * string) list

let int n = string_of_int n
let ms f = Printf.sprintf "%.2f" f

let same ~what (expected : outputs) (got : outputs) =
  List.iter
    (fun (field, want) ->
      match List.assoc_opt field got with
      | Some v when String.equal v want -> ()
      | Some v -> fail "%s: %s is %s, expected %s" what field v want
      | None -> fail "%s: %s missing" what field)
    expected;
  if List.length expected <> List.length got then
    fail "%s: %d outputs, expected %d" what (List.length got)
      (List.length expected)

(* With [--print-pins], outputs are collected instead of checked. *)
let collecting = ref false
let collected : (string * int * int * outputs) list ref = ref []

(* [pinned ~stream ~seed ~n got] — [stream] names the input stream (two
   workloads that run the same stream share its pins: observers must
   not perturb the simulation), [n] its size in transactions.  Seeds 1
   and 2 are pinned at every size, so a missing pin for them means a
   size changed without regenerating [Pins]. *)
let pinned ~stream ~seed ~n got =
  let key (s, e, m, _) = s = stream && e = seed && m = n in
  if !collecting then begin
    if not (List.exists key !collected) then
      collected := (stream, seed, n, got) :: !collected
  end
  else
    match List.find_opt key Pins.table with
    | Some (_, _, _, expected) ->
      same ~what:(Printf.sprintf "%s seed %d n=%d vs pins" stream seed n) expected got
    | None when seed = 1 || seed = 2 ->
      fail "no pin for %s seed %d n=%d; regenerate pins.ml with --print-pins" stream seed n
    | None -> ()

let print_pins () =
  print_endline "let table =\n  [";
  List.iter
    (fun (stream, seed, n, outputs) ->
      Printf.printf "    ( %S, %d, %d,\n      [\n" stream seed n;
      List.iter (fun (k, v) -> Printf.printf "        (%S, %S);\n" k v) outputs;
      print_endline "      ] );")
    (List.sort compare !collected);
  print_endline "  ]"

let check cond fmt =
  Printf.ksprintf (fun m -> if not cond then raise (Mismatch m)) fmt
