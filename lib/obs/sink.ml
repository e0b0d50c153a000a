type t = { write : Jsonl.t -> unit; flush : unit -> unit; close : unit -> unit }

(* The live list is an atomic so [enabled]/[emit] on hot paths never block;
   the mutex serializes writes (JSONL lines from concurrent domains must not
   interleave mid-line) and list mutations. *)
let sinks : t list Atomic.t = Atomic.make []

let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let enabled () = Atomic.get sinks <> []

let emit event =
  match Atomic.get sinks with
  | [] -> ()
  | _ ->
      (* re-read under the lock: a concurrent [close_all] must not race a
         write into a closed channel *)
      locked (fun () -> List.iter (fun s -> s.write event) (Atomic.get sinks))

let install sink =
  locked (fun () -> Atomic.set sinks (sink :: Atomic.get sinks));
  sink

let install_jsonl ?(close_channel = false) oc =
  install
    {
      write = (fun event -> output_string oc (Jsonl.to_string event); output_char oc '\n');
      flush = (fun () -> flush oc);
      close = (fun () -> flush oc; if close_channel then close_out_noerr oc);
    }

let install_file path = install_jsonl ~close_channel:true (open_out path)

let flush_all () = locked (fun () -> List.iter (fun s -> s.flush ()) (Atomic.get sinks))

let close_all () =
  let live =
    locked (fun () ->
        let live = Atomic.get sinks in
        Atomic.set sinks [];
        live)
  in
  List.iter (fun s -> s.close ()) live

let init_from_env () =
  match Sys.getenv_opt "CDR_OBS" with
  | None | Some "" | Some "off" | Some "0" -> ()
  | Some "stderr" -> ignore (install_jsonl stderr)
  | Some spec ->
      let path =
        match String.index_opt spec ':' with
        | Some i when String.sub spec 0 i = "jsonl" ->
            Some (String.sub spec (i + 1) (String.length spec - i - 1))
        | Some _ -> None (* unknown scheme: ignore *)
        | None -> Some spec
      in
      Option.iter
        (fun path -> match install_file path with _ -> () | exception Sys_error _ -> ())
        path
