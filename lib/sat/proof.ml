type step =
  | Learn of Lit.t list
  | Delete of Lit.t list
  | Improve of { model : bool array; cost : int }
  | Substitute of (Lit.t * Lit.t) list
  | Eliminate of { pivot : Lit.t; witness : Lit.t list list }
  | Contradiction

type claim = Unsat_claim | Optimal_claim of int

type t = { mutable steps_rev : step list; mutable count : int }

let create () = { steps_rev = []; count = 0 }

let of_steps steps =
  { steps_rev = List.rev steps; count = List.length steps }

let add t s =
  t.steps_rev <- s :: t.steps_rev;
  t.count <- t.count + 1

let steps t = List.rev t.steps_rev
let num_steps t = t.count

let claim_to_string = function
  | Unsat_claim -> "unsat"
  | Optimal_claim c -> Printf.sprintf "optimal %d" c

let claim_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "unsat" ] -> Unsat_claim
  | [ "optimal"; c ] -> (
    match int_of_string_opt c with
    | Some c -> Optimal_claim c
    | None -> failwith ("proof: malformed claim: " ^ s))
  | _ -> failwith ("proof: malformed claim: " ^ s)

let add_int buf n =
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int n)

let lits_to_buf buf lits =
  List.iter (fun l -> add_int buf (Lit.to_dimacs l)) lits;
  Buffer.add_string buf " 0"

let step_to_buf buf = function
  | Learn lits ->
    Buffer.add_char buf 'l';
    lits_to_buf buf lits
  | Delete lits ->
    Buffer.add_char buf 'd';
    lits_to_buf buf lits
  | Improve { model; cost } ->
    Buffer.add_char buf 'm';
    add_int buf cost;
    Array.iteri (fun v b -> add_int buf (if b then v + 1 else -(v + 1))) model;
    Buffer.add_string buf " 0"
  | Substitute pairs ->
    Buffer.add_char buf 'x';
    lits_to_buf buf (List.concat_map (fun (a, b) -> [ a; b ]) pairs)
  | Eliminate { pivot; witness } ->
    Buffer.add_char buf 'v';
    add_int buf (Lit.to_dimacs pivot);
    add_int buf (List.length witness);
    List.iter (lits_to_buf buf) witness
  | Contradiction -> Buffer.add_char buf 'u'

type parsed = {
  p_formula : Formula.t option;
  p_claim : claim option;
  p_steps : step list;
}

let write_file path ?formula ~claim t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "c colib proof v1\ns %s\n" (claim_to_string claim);
      Option.iter
        (fun f ->
          (* OPB text has no blank lines and ends with a newline *)
          let opb = Output.opb_string f in
          let rec lines i =
            match String.index_from_opt opb i '\n' with
            | None -> ()
            | Some j ->
              output_string oc "f ";
              output_substring oc opb i (j + 1 - i);
              lines (j + 1)
          in
          lines 0)
        formula;
      let buf = Buffer.create 4096 in
      List.iter
        (fun s ->
          Buffer.clear buf;
          step_to_buf buf s;
          Buffer.add_char buf '\n';
          Buffer.output_buffer oc buf)
        (steps t))

(* --- parsing --- *)

(* One line of the text, read in place from [pos] up to [stop]. *)
type line = { text : string; mutable pos : int; stop : int }

(* the next blank-separated token, "" at the end of the line *)
let token ln =
  let blank i = match ln.text.[i] with ' ' | '\t' | '\r' -> true | _ -> false in
  while ln.pos < ln.stop && blank ln.pos do
    ln.pos <- ln.pos + 1
  done;
  let s = ln.pos in
  while ln.pos < ln.stop && not (blank ln.pos) do
    ln.pos <- ln.pos + 1
  done;
  String.sub ln.text s (ln.pos - s)

let next_int ln =
  match token ln with
  | "" -> None
  | tok -> (
    match int_of_string_opt tok with
    | Some _ as n -> n
    | None -> failwith ("proof: malformed integer: " ^ tok))

let int_exn ln =
  match next_int ln with Some n -> n | None -> failwith "proof: line ends early"

(* DIMACS literals up to a terminating 0 *)
let read_lits ln =
  let rec go acc =
    match next_int ln with
    | None -> failwith "proof: literal list missing terminating 0"
    | Some 0 -> List.rev acc
    | Some n -> go (Lit.of_dimacs n :: acc)
  in
  go []

let rec pairs = function
  | a :: b :: rest -> (a, b) :: pairs rest
  | [] -> []
  | [ _ ] -> failwith "proof: dangling literal in substitution"

let read_model ~nvars ln =
  let lits = read_lits ln in
  let nvars =
    match nvars with
    | Some n -> n
    | None -> List.fold_left (fun a l -> max a (Lit.var l + 1)) 0 lits
  in
  let model = Array.make nvars false in
  List.iter
    (fun l ->
      let v = Lit.var l in
      if v >= nvars then failwith "proof: model literal out of range";
      model.(v) <- Lit.sign l)
    lits;
  model

(* [f start stop] over every line of [text], without the newlines *)
let iter_lines f text =
  let n = String.length text in
  let rec go i =
    if i < n then begin
      let j = Option.value (String.index_from_opt text i '\n') ~default:n in
      f i j;
      go (j + 1)
    end
  in
  go 0

let of_string text =
  (* first pass: claim + embedded formula *)
  let claim = ref None in
  let fbuf = Buffer.create 65536 in
  iter_lines
    (fun s e ->
      if e - s >= 2 && text.[s + 1] = ' ' then
        match text.[s] with
        | 'f' ->
          Buffer.add_substring fbuf text (s + 2) (e - s - 2);
          Buffer.add_char fbuf '\n'
        | 's' ->
          claim := Some (claim_of_string (String.sub text (s + 2) (e - s - 2)))
        | _ -> ())
    text;
  let formula =
    if Buffer.length fbuf = 0 then None
    else Some (Output.parse_opb (Buffer.contents fbuf))
  in
  let nvars = Option.map Formula.num_vars formula in
  (* second pass: steps, one a line after its tag token *)
  let steps_rev = ref [] in
  iter_lines
    (fun s e ->
      let ln = { text; pos = s; stop = e } in
      let tag = token ln in
      let step =
        if tag = "" then None
        else
          match tag.[0] with
          | 'c' | 'f' | 's' -> None
          | 'u' when tag = "u" && next_int ln = None -> Some Contradiction
          | 'l' -> Some (Learn (read_lits ln))
          | 'd' -> Some (Delete (read_lits ln))
          | 'x' -> Some (Substitute (pairs (read_lits ln)))
          | 'v' ->
            let pivot = int_exn ln in
            let count = int_exn ln in
            if pivot = 0 || count < 0 then failwith "proof: malformed witness";
            let witness = List.init count (fun _ -> read_lits ln) in
            Some (Eliminate { pivot = Lit.of_dimacs pivot; witness })
          | 'm' ->
            let cost = int_exn ln in
            Some (Improve { model = read_model ~nvars ln; cost })
          | _ ->
            failwith ("proof: unrecognized line: " ^ String.sub text s (e - s))
      in
      Option.iter
        (fun st ->
          if next_int ln <> None then
            failwith "proof: tokens after the terminating 0";
          steps_rev := st :: !steps_rev)
        step)
    text;
  { p_formula = formula; p_claim = !claim; p_steps = List.rev !steps_rev }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
